"""Standard services: option application log, logging thresholds, tools,
and the writer's packing of the kept rows."""

import os
import random
import struct
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from provrun import OptionsSet, build_job, extract_info, read_block, run_job, standard_catalogue
from provrun.errors import AlgorithmFailure, UnknownTool
from provrun.events import encode_events
from provrun.services import ContainerWriterSvc, Service

from helpers import demo_config, random_demo_config


# --- option application -------------------------------------------------------

def test_apply_log_contains_exactly_the_assignments():
    config = OptionsSet([
        ("MessageSvc.OutputLevel", 4),
        ("ApplicationMgr.AppName", "test"),
        ("ApplicationMgr.AppVersion", "v1r0"),
    ])
    job = build_job(config)
    log = job.options_svc.apply_all(job)
    assert sorted(key.text for key, _ in log) == [
        "ApplicationMgr.AppName",
        "ApplicationMgr.AppVersion",
        "MessageSvc.OutputLevel",
    ]


def test_apply_log_empty_for_empty_config():
    job = build_job(OptionsSet())
    assert job.options_svc.apply_all(job) == []


def test_apply_log_length_matches_assignment_count():
    rnd = random.Random(31)
    for _ in range(30):
        config = random_demo_config(rnd, "")
        config.set("ApplicationMgr.OutputFile", "")
        job = build_job(config)
        log = job.options_svc.apply_all(job)
        assert len(log) == len(config)


def test_apply_log_holds_the_lineage_declarations_of_a_derived_container(tmp_path):
    first, second = tmp_path / "first.pdc", tmp_path / "second.pdc"
    assert run_job(demo_config(first, algorithms=("RandomEventSource",))).report.succeeded
    assert run_job(demo_config(second, algorithms=("FileEventSource",),
                               FileEventSource__Input=str(first))).report.succeeded
    config = extract_info(second).to_options()
    job = build_job(config)
    log = job.options_svc.apply_all(job)
    assert len(log) == len(config)
    keys = [key.text for key, _ in log]
    assert keys.count("Provenance.Inputs.I0.Path") == 1
    assert keys.count("Provenance.Inputs.I0.Checksum") == 1


# --- message service -----------------------------------------------------------

def log_lines(capsys):
    return [line for line in capsys.readouterr().err.splitlines() if line]


def test_log_below_threshold_suppressed(capsys):
    job = build_job(OptionsSet())
    job.initialize()
    capsys.readouterr()
    job.msg.log(2, "Tester", "quiet")
    assert log_lines(capsys) == []


def test_log_at_threshold_emitted(capsys):
    job = build_job(OptionsSet())
    job.initialize()
    capsys.readouterr()
    job.msg.log(3, "Tester", "heard")
    lines = log_lines(capsys)
    assert len(lines) == 1
    assert "heard" in lines[0] and "Tester" in lines[0]


def test_log_level_zero_emits_everything(capsys):
    job = build_job(OptionsSet([("MessageSvc.OutputLevel", 0)]))
    job.initialize()
    capsys.readouterr()
    for level in range(5):
        job.msg.log(level, "Tester", f"msg{level}")
    assert len(log_lines(capsys)) == 5


# --- tool service ----------------------------------------------------------------

def test_tool_is_a_single_shared_instance():
    job = build_job(OptionsSet())
    job.initialize()
    assert job.tool("DemoTool") is job.tool("DemoTool")


def test_unknown_tool():
    job = build_job(OptionsSet())
    job.initialize()
    with pytest.raises(UnknownTool):
        job.tool("GhostTool")


def test_tool_property_applied_from_config():
    job = build_job(OptionsSet([("DemoTool.Gain", 2.5)]))
    job.initialize()
    tool = job.tool("DemoTool")
    assert tool.value("Gain") == 2.5


def test_assigning_to_tool_instantiates_it_for_capture(tmp_path):
    out = tmp_path / "tooled.pdc"
    config = demo_config(out, DemoTool__Gain=3.5)
    job = run_job(config)
    assert job.report.succeeded
    snapshot = job.metadata_svc.get_metadata()
    assert snapshot["DemoTool.Gain"] == "3.5"


# --- start/stop ordering -----------------------------------------------------------

calls: list[tuple[str, str]] = []


class SvcA(Service):
    def start(self, job):
        calls.append(("SvcA", "start"))

    def stop(self, job):
        calls.append(("SvcA", "stop"))


class SvcB(Service):
    def start(self, job):
        calls.append(("SvcB", "start"))

    def stop(self, job):
        calls.append(("SvcB", "stop"))


def test_service_start_order_and_reverse_stop():
    calls.clear()
    catalogue = (*standard_catalogue(), SvcA, SvcB)
    config = OptionsSet([("ApplicationMgr.Services", ["SvcA", "SvcB"])])
    job = run_job(config, catalogue)
    assert job.report.succeeded
    assert calls == [("SvcA", "start"), ("SvcB", "start"),
                     ("SvcB", "stop"), ("SvcA", "stop")]


# --- the writer ---------------------------------------------------------------------

# what a buggy algorithm may keep: a row of the wrong width, a cell that is
# no number or a number no double holds, or no row at all
_ANY_CELL = st.one_of(st.floats(), st.integers(-2**1100, 2**1100), st.text(max_size=2),
                      st.none())
_MISFIT = st.one_of(st.none(), st.lists(_ANY_CELL, max_size=4).map(tuple))


@st.composite
def _kept_rows(draw):
    """A width, rows that mostly fit it, and where to cut them into hand-overs."""
    width = draw(st.integers(0, 3))
    fitting = st.tuples(*[st.one_of(st.floats(), st.integers(-2**53, 2**53))] * width)
    rows = draw(st.lists(fitting, max_size=30))
    for _ in range(draw(st.integers(0, 3)) - 1):  # half the lists have no misfit
        rows.insert(draw(st.integers(0, len(rows))), draw(_MISFIT))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=3)))
    return width, rows, cuts


def _first_misfit(width, rows):
    """The index of the first row that is not `width` doubles, by a plain loop."""
    for index, kept in enumerate(rows):
        try:
            struct.pack("<" + "d" * width, *kept)
        except (struct.error, TypeError):
            return index
    return None


@settings(max_examples=300)
@given(kept=_kept_rows())
@example(kept=(2, [(1.0, 2.0), (3.0, 4.0), (5.0,), (6.0, 7.0)], [1]))
@example(kept=(2, [(1.0, 2.0), (3.0, 4.0), None, (6.0, 7.0)], [2, 2]))
def test_the_writer_packs_what_encode_events_encodes(kept):
    # handed over in parts, the kept rows give encode_events' block, or its
    # error naming the same row among all the rows kept
    width, rows, cuts = kept
    fields = [f"f{i}" for i in range(width)]
    try:
        expected = encode_events(fields, rows)
    except Exception as exc:
        expected = exc
    writer = ContainerWriterSvc()
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "out.pdc")
        for start, end in zip([0, *cuts], [*cuts, len(rows)]):
            writer.keep(iter(rows[start:end]), out, fields)
        assert writer.kept.count == len(rows)
        if isinstance(expected, bytes):
            writer.write(out, fields, None)
            assert read_block(out, "events") == expected
            return
        with pytest.raises(Exception) as raised:
            writer.write(out, fields, None)
        assert not os.path.exists(out)
    if isinstance(expected, ValueError):
        assert raised.type is AlgorithmFailure
        assert str(raised.value) == f"cannot write the kept events: {expected}"
        index = _first_misfit(width, rows)
        assert str(expected).startswith(f"row {index} of width ")
    else:
        assert (raised.type, str(raised.value)) == (type(expected), str(expected))
