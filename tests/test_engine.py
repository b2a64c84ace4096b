"""The per-event engine: pinned output bytes, field binding, by-name access
to the event row and transforms by assignment, the random source against
the stateful generator, the replay fixpoint over random configs, and each
demo algorithm's stage against its per-event `process`."""

import hashlib
import os
import random
import struct
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from provrun import PhaseStatus, extract_info, read_block, run_job, standard_catalogue
from provrun.algorithms import Algorithm, EventSource
from provrun.cli import EXIT_OK, main
from provrun.container import INFO_BLOCK, ContainerReader, write_container
from provrun.errors import AlgorithmFailure
from provrun.events import decode_events, encode_events
from provrun.rng import SplitMix64

from helpers import demo_config, random_demo_config
from test_core import failing_catalogue


def block_digests(path) -> list[tuple[str, str]]:
    """(name, SHA-256 of the payload) of every block, in file order."""
    with ContainerReader(path) as reader:
        return [(name, hashlib.sha256(reader.read_block(name)).hexdigest())
                for name in reader.block_names()]


# --- pinned bytes ---------------------------------------------------------------

_FILTER_SUM = ("RandomEventSource", "ThresholdFilter", "Accumulator")
# CRC-32C of the `events` block of full.pdc, declared as the lineage of
# declared.pdc
FULL_EVENTS_CRC = 2823646708


def _pinned_jobs():
    """(output name, config, catalogue); outputs are relative to the working
    directory, so `info` does not depend on where the test runs."""
    return [
        ("full.pdc", demo_config(
            "full.pdc", algorithms=_FILTER_SUM, RandomEventSource__Seed=2019,
            RandomEventSource__NumEvents=500, RandomEventSource__FieldCount=3,
            ThresholdFilter__Field="f1", ThresholdFilter__Min=0.4,
            Accumulator__Field="f2"), None),
        ("nofields.pdc", demo_config(
            "nofields.pdc", algorithms=("RandomEventSource",),
            RandomEventSource__NumEvents=7, RandomEventSource__FieldCount=0), None),
        ("noevents.pdc", demo_config(
            "noevents.pdc", algorithms=_FILTER_SUM,
            RandomEventSource__NumEvents=0, RandomEventSource__FieldCount=2), None),
        ("derived.pdc", demo_config(
            "derived.pdc",
            algorithms=("FileEventSource", "ThresholdFilter", "Accumulator"),
            FileEventSource__Input="full.pdc", ThresholdFilter__Field="f0",
            ThresholdFilter__Min=0.3, Accumulator__Field="f1"), None),
        ("partial.pdc", demo_config(
            "partial.pdc", algorithms=("RandomEventSource", "FailAfter"),
            RandomEventSource__Seed=5, RandomEventSource__NumEvents=10,
            RandomEventSource__FieldCount=2), failing_catalogue()),
        ("tuned.pdc", demo_config(
            "tuned.pdc", RandomEventSource__Seed=11, RandomEventSource__NumEvents=40,
            DemoTool__Gain=2.5, MessageSvc__OutputLevel=4), None),
        ("declared.pdc", demo_config(
            "declared.pdc", algorithms=("FileEventSource", "ThresholdFilter"),
            FileEventSource__Input="full.pdc", ThresholdFilter__Min=0.6,
            Provenance__Inputs__I0__Path="full.pdc",
            Provenance__Inputs__I0__Checksum=FULL_EVENTS_CRC), None),
        # 7500 draws cross many 2048-draw boundaries, and 5 fields do not
        # divide 2048, so some events straddle two of them; seed -1 is
        # 2**64 - 1 to the generator
        ("chunked.pdc", demo_config(
            "chunked.pdc", algorithms=_FILTER_SUM, RandomEventSource__Seed=-1,
            RandomEventSource__NumEvents=1500, RandomEventSource__FieldCount=5,
            ThresholdFilter__Field="f3", ThresholdFilter__Min=0.1,
            Accumulator__Field="f4"), None),
    ]


# Recorded with the dict-per-event engine that the row engine replaced
# (tuned.pdc and declared.pdc: before the job's components shared one name
# table; chunked.pdc: with the draw-at-a-time SplitMix64 source); a
# differing digest is a change of output bytes, never a refactor.
PINNED = {
    "full.pdc": [
        ("events", "5eab11021e5615fc7c25a29671f921759d426a329bf7dcd0dff5549612edb1c4"),
        ("summary", "d5dd9d05d8cc9e015af790ee18a7fb1b671269422492f54a8ecb6f4d4e00fd9a"),
        ("info", "4ebb8e7f95c696fd367b750654c39ed31c0ba544818ed5f121e4bcfc6ed61c52"),
    ],
    "nofields.pdc": [
        ("events", "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119"),
        ("info", "2bee753eb9b6be6450260817e4baed118b224070776462b418d4554b33e7b393"),
    ],
    "noevents.pdc": [
        ("events", "6b79eab3a1e8b6bf0cc15c45d778576cee424720d56b6b028c027c6e201c35a7"),
        ("summary", "c3dc2e65a110dab91590d7b36386977f77749d1eee04986c9fd9fcaad409915c"),
        ("info", "250e5c18762baefcb89242e645655469579d5be9b3d570d6ac7b4b42c6d54a93"),
    ],
    "derived.pdc": [
        ("events", "2d4b2bb54b1247d66e1bd54483667904dcd609578e3f930456b456cf8db28832"),
        ("summary", "252580cc66baab502a4f442d6ead836c83a705ea2d93d7d167f4bd7fa41337e2"),
        ("info", "2131febe86ab97f28460c6b985f9a07754d3a50ccd46c6bc20f49d03223d3b64"),
    ],
    "partial.pdc": [
        ("events", "c6c92700280271381edf8481460dc03f98734e2a10bbe61f59119c111e5a73a6"),
        ("info", "c8109604e169bc8fdff5b01ef5ea81094fbf3aee489941e3d523512264495872"),
    ],
    "tuned.pdc": [
        ("events", "4b3d2d524a90442684329849eea0ec86e59252e0dbfa60a3d1e730103829b7b4"),
        ("info", "493c45dc63f6ad817e560ad3b71fdfd28243a8b5a75a98d25c7ec60f4a7b3bb2"),
    ],
    "declared.pdc": [
        ("events", "31163cd964c75084183b4e69b804a2579f7ba2fd8ba829b4b53df0e2c186094d"),
        ("info", "dae0898cb1eb3058b8b61eeb75870b8e5fdbec23766e3765ba1d5e0ee27eada6"),
    ],
    "chunked.pdc": [
        ("events", "f28be8974d398baba9a7222556454679db3b457c917cf124564c0ade2997de1c"),
        ("summary", "9377680eadfe4c397b3fed84cbb123847e34810f9a9409abbe38e0999cd8ada5"),
        ("info", "c68e8a2e9cfb4f59c1fd43f6923a6d7bdf5c87ac18e9e751b22eb2bf2a422679"),
    ],
}


def test_container_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests = {}
    for name, config, catalogue in _pinned_jobs():
        run_job(config, catalogue)
        digests[name] = block_digests(name)
    assert digests == PINNED


# --- field binding ----------------------------------------------------------------

def test_misnamed_filter_field_fails_at_the_first_event(tmp_path):
    out = tmp_path / "misnamed.pdc"
    job = run_job(demo_config(out, RandomEventSource__NumEvents=5,
                              ThresholdFilter__Field="nope"))
    assert job.report.phases["execute"] is PhaseStatus.FAILED
    assert job.report.phases["finalize"] is PhaseStatus.OK
    assert job.report.events_seen == 0
    assert isinstance(job.failure, AlgorithmFailure)
    assert str(job.failure) == "event 0 has no field 'nope'"
    assert decode_events(read_block(out, "events")) == (["f0"], [])


def test_misnamed_accumulator_field_fails_at_the_first_event(tmp_path):
    job = run_job(demo_config(tmp_path / "misnamed.pdc",
                              algorithms=("RandomEventSource", "Accumulator"),
                              RandomEventSource__NumEvents=5, Accumulator__Field="nope"))
    assert job.report.phases["execute"] is PhaseStatus.FAILED
    assert job.report.events_seen == 0
    assert isinstance(job.failure, AlgorithmFailure)
    assert str(job.failure) == "event 0 has no field 'nope'"


def test_misnamed_field_without_events_is_never_read(tmp_path):
    job = run_job(demo_config(tmp_path / "none.pdc", RandomEventSource__NumEvents=0,
                              ThresholdFilter__Field="nope"))
    assert job.report.succeeded


def test_misnamed_field_behind_a_veto_all_filter_is_never_read(tmp_path):
    job = run_job(demo_config(tmp_path / "vetoed.pdc", algorithms=_FILTER_SUM,
                              RandomEventSource__NumEvents=5, ThresholdFilter__Min=2.0,
                              Accumulator__Field="nope"))
    assert job.report.succeeded
    assert job.report.events_seen == 5
    assert job.report.events_written == 0


def test_input_naming_one_field_twice_fails_initialize(tmp_path):
    source, out = tmp_path / "twice.pdc", tmp_path / "out.pdc"
    fields = struct.pack("<I", 2) + (struct.pack("<H", 1) + b"a") * 2
    write_container(source, [("events", fields + struct.pack("<4d", 1, 2, 3, 4))])
    job = run_job(demo_config(out, algorithms=("FileEventSource", "ThresholdFilter"),
                              FileEventSource__Input=str(source),
                              ThresholdFilter__Field="a", ThresholdFilter__Min=1.5))
    assert job.report.phases["initialize"] is PhaseStatus.FAILED
    assert isinstance(job.failure, AlgorithmFailure)
    assert str(job.failure).startswith(f"cannot read input {str(source)!r}: ")
    assert not out.exists()


_TWO_ROWS = encode_events(["f0", "f1"], [(1.0, 2.0), (3.0, 4.0)])


# each block has a valid CRC-32C: only its own layout is wrong
@pytest.mark.parametrize("events, message", [
    (_TWO_ROWS[:-3], "events payload length is not a whole number of events"),
    (_TWO_ROWS + b"\0" * 8, "events payload length is not a whole number of events"),
    (_TWO_ROWS[:7], "truncated name table"),
    (encode_events([], []) + b"\0" * 8, "events payload declares no fields but has data"),
], ids=["row-cut-short", "half-a-row-extra", "table-cut-short", "data-without-fields"])
def test_a_truncated_or_mismatched_input_events_block_fails_initialize(tmp_path, events,
                                                                      message):
    source, out = tmp_path / "bad.pdc", tmp_path / "out.pdc"
    write_container(source, [("events", events)])
    job = run_job(demo_config(out, algorithms=("FileEventSource", "Accumulator"),
                              FileEventSource__Input=str(source)))
    assert job.report.phases["initialize"] is PhaseStatus.FAILED
    assert job.report.phases["execute"] is PhaseStatus.SKIPPED
    assert str(job.failure) == f"cannot read input {str(source)!r}: {message}"
    assert (job.report.events_seen, job.report.events_written) == (0, 0)
    assert job.algorithms[1]._count == 0  # no event reached the accumulator
    assert not out.exists()


# --- by-name access -----------------------------------------------------------------

class DoubleF0(Algorithm):
    """Not in the standard catalogue: rewrites f0 through the event store."""

    def process(self, job, event):
        doubled = job.events.get("f0") * 2
        job.events.put("f0", doubled)
        if job.events.get("f0") != doubled:
            raise AlgorithmFailure("get does not see what put wrote")
        return True


class ReadGhost(Algorithm):
    def process(self, job, event):
        job.events.get("ghost")
        return True


def by_name_catalogue():
    return (*standard_catalogue(), DoubleF0, ReadGhost)


def test_event_store_puts_and_gets_by_name(tmp_path):
    plain, doubled = tmp_path / "plain.pdc", tmp_path / "doubled.pdc"
    run_job(demo_config(plain, algorithms=("RandomEventSource",),
                        RandomEventSource__NumEvents=6, RandomEventSource__FieldCount=2))
    job = run_job(demo_config(doubled, algorithms=("RandomEventSource", "DoubleF0"),
                              RandomEventSource__NumEvents=6,
                              RandomEventSource__FieldCount=2), by_name_catalogue())
    assert job.report.succeeded
    names, rows = decode_events(read_block(plain, "events"))
    assert decode_events(read_block(doubled, "events")) == (
        names, [(row[0] * 2, row[1]) for row in rows])


def test_event_store_get_of_an_unknown_name_fails_execute(tmp_path):
    job = run_job(demo_config(tmp_path / "ghost.pdc",
                              algorithms=("RandomEventSource", "ReadGhost")),
                  by_name_catalogue())
    assert job.report.phases["execute"] is PhaseStatus.FAILED
    assert isinstance(job.failure, AlgorithmFailure)
    assert str(job.failure) == "event 0 has no field 'ghost'"


class AssignDoubled(Algorithm):
    """Transforms the event as a catalogue algorithm does: it assigns a new row."""

    def process(self, job, event):
        event.row = (event.row[0] * 2, *event.row[1:])
        return True


def test_an_algorithm_transforms_an_event_by_assigning_a_new_row(tmp_path):
    catalogue = (*standard_catalogue(), AssignDoubled)
    out = tmp_path / "assigned.pdc"
    job = run_job(demo_config(out, algorithms=("RandomEventSource", "AssignDoubled"),
                              RandomEventSource__Seed=5, RandomEventSource__NumEvents=6,
                              RandomEventSource__FieldCount=3), catalogue)
    assert job.report.succeeded, job.report.error
    rng = SplitMix64(5)
    drawn = [tuple(rng.next_double() for _ in range(3)) for _ in range(6)]
    expected = [(row[0] * 2, *row[1:]) for row in drawn]
    assert read_block(out, "events") == encode_events(["f0", "f1", "f2"], expected)


# --- the random source ------------------------------------------------------------

class KeepRows(Algorithm):
    """Holds on to every row it sees, as the writer does."""

    def start(self, job):
        self.rows = []

    def process(self, job, event):
        self.rows.append(event.row)
        return True


# 2051 fields put one event's row across two lane chunks of draws
@pytest.mark.parametrize("field_count, num_events",
                         [(0, 5), (1, 2100), (3, 1400), (4, 1100), (2051, 3)])
def test_random_source_rows_equal_the_stateful_reference(tmp_path, field_count,
                                                         num_events):
    catalogue = (*standard_catalogue(), KeepRows)
    out = tmp_path / "random.pdc"
    job = run_job(demo_config(out, algorithms=("RandomEventSource", "KeepRows"),
                              RandomEventSource__Seed=-7,
                              RandomEventSource__NumEvents=num_events,
                              RandomEventSource__FieldCount=field_count), catalogue)
    assert job.report.succeeded, job.report.error
    rng = SplitMix64(-7)
    expected = [tuple(rng.next_double() for _ in range(field_count))
                for _ in range(num_events)]
    fields = [f"f{i}" for i in range(field_count)]
    assert read_block(out, "events") == encode_events(fields, expected)
    kept = job.algorithms[1].rows
    assert kept == expected
    assert all(type(row) is tuple for row in kept)


# --- replay fixpoint ------------------------------------------------------------------

def _non_info_crcs(path) -> dict[str, int]:
    with ContainerReader(path) as reader:
        return {name: reader.block_crc(name) for name in reader.block_names()
                if name != INFO_BLOCK}


@settings(max_examples=25)
@given(seed=st.integers(0, 2**64 - 1))
def test_replay_is_a_fixpoint_of_random_configs(seed):
    with tempfile.TemporaryDirectory() as work:
        original = os.path.join(work, "original.pdc")
        replayed = os.path.join(work, "replayed.pdc")
        job = run_job(random_demo_config(random.Random(seed), original))
        assert job.report.succeeded, job.report.error
        assert main(["replay", original, replayed]) == EXIT_OK
        assert _non_info_crcs(replayed) == _non_info_crcs(original)
        assert (extract_info(replayed).without("ApplicationMgr.OutputFile")
                == extract_info(original).without("ApplicationMgr.OutputFile"))


# --- the stages against their per-event reference ---------------------------------

def per_event_catalogue():
    """The demo catalogue with every algorithm's stream its base class's default,
    so each event goes through the algorithm's `process`."""
    def per_event(cls):
        if not issubclass(cls, Algorithm):
            return cls
        base = EventSource if issubclass(cls, EventSource) else Algorithm
        return type(cls.__name__, (cls,), {"stream": base.stream})

    return tuple(map(per_event, standard_catalogue()))


def _run_and_read(config, catalogue, out):
    """What a run shows from outside: the container's bytes, the counts, the
    phases and the error text."""
    job = run_job(config, catalogue)
    report = job.report
    data = None
    if os.path.exists(out):
        with open(out, "rb") as handle:
            data = handle.read()
        os.remove(out)
    return (data, report.events_seen, report.events_written, report.phases,
            report.error, report.output_path, report.payload_checksum)


def _fields(field_count):
    """A field of the schema two times in three, else one it lacks."""
    present = (st.integers(0, field_count - 1).map("f{}".format) if field_count
               else st.nothing())
    return st.one_of(present, present, st.sampled_from([f"f{field_count}", "ghost"]))


# a plain integers(0, 5000) draws mostly tiny counts; most jobs here need rows
_NUM_EVENTS = st.one_of(st.integers(1, 60), st.integers(2000, 5000), st.integers(0, 5000))


@st.composite
def _stage_configs(draw, out, source, field_count):
    """A source, then ThresholdFilter and Accumulator in some order, or neither."""
    later = draw(st.permutations(["ThresholdFilter", "Accumulator"]))
    later = later[:draw(st.integers(0, 2))]
    config = demo_config(out, algorithms=(source, *later))
    if "ThresholdFilter" in later:
        config.set("ThresholdFilter.Field", draw(_fields(field_count)))
        config.set("ThresholdFilter.Min", draw(st.floats(-0.2, 1.2)))
    if "Accumulator" in later:
        config.set("Accumulator.Field", draw(_fields(field_count)))
    return config


def _random_source(config, seed, num_events, field_count):
    config.set("RandomEventSource.Seed", seed)
    config.set("RandomEventSource.NumEvents", num_events)
    config.set("RandomEventSource.FieldCount", field_count)
    return config


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(-2**63, 2**63 - 1), num_events=_NUM_EVENTS,
       field_count=st.integers(0, 5), data=st.data())
@example(seed=3, num_events=5000, field_count=1, data=None)
@example(seed=4, num_events=4097, field_count=3, data=None)
def test_the_stages_equal_their_per_event_reference(seed, num_events, field_count, data):
    # 2048 lanes of draws make a chunk, so 5000 one-field events cross two
    # chunk boundaries; an explicit example runs the full chain
    with tempfile.TemporaryDirectory() as work:
        out = os.path.join(work, "out.pdc")
        if data is None:
            config = demo_config(out, algorithms=_FILTER_SUM, ThresholdFilter__Min=0.25)
        else:
            config = data.draw(_stage_configs(out, "RandomEventSource", field_count))
        _random_source(config, seed, num_events, field_count)
        assert (_run_and_read(config, standard_catalogue(), out)
                == _run_and_read(config, per_event_catalogue(), out))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(-2**63, 2**63 - 1), num_events=_NUM_EVENTS,
       field_count=st.integers(0, 5), data=st.data())
def test_file_source_stages_equal_their_per_event_reference(seed, num_events,
                                                            field_count, data):
    with tempfile.TemporaryDirectory() as work:
        source, out = os.path.join(work, "source.pdc"), os.path.join(work, "out.pdc")
        made = run_job(_random_source(
            demo_config(source, algorithms=("RandomEventSource",)),
            seed, num_events, field_count))
        assert made.report.succeeded, made.report.error
        config = data.draw(_stage_configs(out, "FileEventSource", field_count))
        config.set("FileEventSource.Input", source)
        assert (_run_and_read(config, standard_catalogue(), out)
                == _run_and_read(config, per_event_catalogue(), out))


def test_the_per_event_reference_runs_every_process(tmp_path):
    # guards the law above: its reference must not take the stages' path
    calls = []
    catalogue = per_event_catalogue()
    for cls in filter(lambda cls: issubclass(cls, Algorithm), catalogue):
        def process(self, job, event, _base=cls.process):
            calls.append(self.name)
            return _base(self, job, event)
        cls.process = process
    run_job(demo_config(tmp_path / "ref.pdc", algorithms=_FILTER_SUM,
                        RandomEventSource__NumEvents=4, ThresholdFilter__Min=0.5),
            catalogue)
    assert calls.count("RandomEventSource") == 4
    assert calls.count("ThresholdFilter") == 4
    assert 0 < calls.count("Accumulator") < 4


@pytest.mark.parametrize("catalogue", [standard_catalogue, per_event_catalogue])
def test_the_accumulator_adds_left_to_right(tmp_path, catalogue):
    # math.fsum, and sum() from Python 3.12, give 1.0; the summary bytes
    # pin the plain left-to-right += of one row after another
    source, out = tmp_path / "cancel.pdc", tmp_path / "sum.pdc"
    write_container(source, [("events", encode_events(["f0"], [(1e16,), (1.0,), (-1e16,)]))])
    job = run_job(demo_config(out, algorithms=("FileEventSource", "Accumulator"),
                              FileEventSource__Input=str(source)), catalogue())
    assert job.report.succeeded, job.report.error
    assert read_block(out, "summary") == b"Accumulator.Count = 3\nAccumulator.Sum = 0.0\n"
