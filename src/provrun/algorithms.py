"""The fixed demo algorithm catalogue.

Deliberately small and fully deterministic: a pseudo-random source, a
file-backed source (which is what gives jobs input lineage), a threshold
filter that can veto events, and an accumulating sink. Together they
exercise the source/filter/sink roles the provenance capture has to cover.
A source names the schema (`fields`) and makes each event's `row`; the
others resolve their columns and properties once, in `bind`, and a field
the schema lacks fails only the first event that reaches its reader.

Each algorithm is a stage of the event loop: `stream` takes the rows that
reach it and yields those that pass, one at a time and in order. Its
default hands each row to `process` as `event.row`, so an algorithm may
define either. The four demo algorithms define both: `stream` is the
loop the job runs, and `process` is the per-event reference it must equal.
"""

from __future__ import annotations

import os
from itertools import repeat

from .components import Component
from .container import ContainerReader, refuse_overwrite
from .errors import AlgorithmFailure, CorruptContainer, LineageMissing
from .events import iter_events
from .options import Kind, OptionsSet, emit_canonical
from .rng import doubles, lane_chunks


class Algorithm(Component):
    def start(self, job) -> None:
        pass

    def bind(self, event) -> None:
        """Resolve what `stream` or `process` reads, once per job, after the
        schema is set."""

    def process(self, job, event) -> bool:
        """Handle one event; returning False vetoes it for the rest of the chain."""
        return True

    def stream(self, job, event, rows):
        """Yield the `rows` that pass, in order, taking each only after the
        one before it has left the chain. By default each row is handed to
        `process` as `event.row`, and the `event.row` it leaves is passed on."""
        process = self.process
        for row in rows:
            event.row = row
            try:
                passed = process(job, event)
            except StopIteration as exc:  # a generator would turn it into a RuntimeError
                raise AlgorithmFailure(f"{type(exc).__name__}: {exc}") from exc
            if passed:
                yield event.row

    def finish(self, job) -> None:
        pass


class EventSource(Algorithm):
    """Produces the event stream (first in the chain); `plan` sets `fields`.
    Its stream is handed one empty row per planned event, yields each
    event's row in its place and numbers the events: `event.index` is set
    as each event enters the chain. The demo sources hand out the rows they
    planned, once."""

    def plan(self, job) -> int:
        """Number of events this run will produce; called once per job."""
        raise NotImplementedError

    def close(self, job) -> None:
        """Release what the stream holds; execute calls it when the stream
        ends, however it ends, once `plan` has returned."""

    def stream(self, job, event, rows):
        """By default `process` makes each event's row, from an empty one,
        with `event.index` already set."""
        return super().stream(job, event, _numbered(event, rows))


def _numbered(event, rows):
    """`rows`, setting `event.index` to each one's position as it is taken.
    When taking a row fails, `event.index` is that of the event being made."""
    event.index = -1
    try:
        for event.index, row in enumerate(rows):
            yield row
    except GeneratorExit:
        raise
    except BaseException:
        event.index += 1
        raise


class RandomEventSource(EventSource):
    """Uniform [0,1) fields f0..f{k-1}, one SplitMix64 draw per field per
    event in event-major order; identical seeds give identical payloads.
    The draws come as one stream (`rng.lane_chunks`), zipped into rows. A
    job of at least `rng.FORK_DRAWS` draws computes them in a worker,
    forked at its first row when `workers` allows one; the worker writes
    no file, only the pipe the job reads, and the rows are identical
    either way. `close` ends the worker."""

    PROPERTIES = (
        ("Seed", Kind.INTEGER, 0),
        ("NumEvents", Kind.INTEGER, 10),
        ("FieldCount", Kind.INTEGER, 1),
    )

    def plan(self, job) -> int:
        count = self.value("NumEvents")
        field_count = self.value("FieldCount")
        if count < 0 or field_count < 0:
            raise AlgorithmFailure("NumEvents and FieldCount must be non-negative")
        self._draws = lane_chunks(self.value("Seed"), 0, count * field_count)
        self._rows = (zip(*[doubles(self._draws)] * field_count) if field_count
                      else repeat((), count))
        self.fields = [f"f{i}" for i in range(field_count)]
        return count

    def close(self, job) -> None:
        self._draws.close()

    def process(self, job, event) -> bool:
        event.row = next(self._rows)
        return True

    def stream(self, job, event, rows):
        return _numbered(event, self._rows)


class FileEventSource(EventSource):
    """Replays the `events` block of an existing container as the input
    stream, recording the file's identity (path + checksum) as lineage.
    It holds the block's bytes and unpacks each row as the event is made."""

    PROPERTIES = (("Input", Kind.TEXT, ""),)

    def start(self, job) -> None:
        """Read and verify the input here, so that a missing, changed or
        self-overwriting input fails initialize and no output is written."""
        path = self.value("Input")
        if not path:
            raise AlgorithmFailure(f"{self.name}.Input is not set")
        if not os.path.exists(path):
            if job.lineage.next_is_declared():
                raise LineageMissing(f"declared input {path!r} no longer exists")
            raise AlgorithmFailure(f"input container {path!r} does not exist")
        refuse_overwrite(path, job.app.value("OutputFile"))
        try:
            with ContainerReader(path) as reader:
                payload = reader.read_block("events")
                crc = reader.block_crc("events")
            self.fields, self._count, self._rows = iter_events(payload)
        except CorruptContainer as exc:
            raise AlgorithmFailure(f"cannot read input {path!r}: {exc}") from exc
        job.lineage.record(path, crc)

    def plan(self, job) -> int:
        return self._count

    def process(self, job, event) -> bool:
        event.row = next(self._rows)
        return True

    def stream(self, job, event, rows):
        return _numbered(event, self._rows)


class ThresholdFilter(Algorithm):
    """Vetoes every event whose field is below Min."""

    PROPERTIES = (
        ("Field", Kind.TEXT, "f0"),
        ("Min", Kind.FLOAT, 0.0),
    )

    def bind(self, event) -> None:
        self._field = self.value("Field")
        self._column = event.column(self._field)
        self._min = self.value("Min")

    def process(self, job, event) -> bool:
        if self._column is None:
            raise event.missing_field(self._field)
        return event.row[self._column] >= self._min

    def stream(self, job, event, rows):
        column, minimum = self._column, self._min
        if column is None:
            for _ in rows:
                raise event.missing_field(self._field)
        for row in rows:
            if row[column] >= minimum:
                yield row


class Accumulator(Algorithm):
    """Sums a field over the events that reach it and writes the total into
    a `summary` payload block at finalize."""

    PROPERTIES = (("Field", Kind.TEXT, "f0"),)
    _sum = 0.0
    _count = 0

    def bind(self, event) -> None:
        self._field = self.value("Field")
        self._column = event.column(self._field)

    def process(self, job, event) -> bool:
        if self._column is None:
            raise event.missing_field(self._field)
        self._sum += event.row[self._column]
        self._count += 1
        return True

    def stream(self, job, event, rows):
        # the totals move per row, so a later stage's failure leaves them
        # counting the event in flight
        column = self._column
        if column is None:
            for _ in rows:
                raise event.missing_field(self._field)
        for row in rows:
            self._sum += row[column]
            self._count += 1
            yield row

    def finish(self, job) -> None:
        summary = OptionsSet()
        summary.set(f"{self.name}.Count", self._count)
        summary.set(f"{self.name}.Sum", self._sum)
        job.writer.add_block("summary", emit_canonical(summary).encode("utf-8"))


class DemoTool(Component):
    """The one catalogued tool; exists so the capture traversal over tools
    is exercised for real."""

    PROPERTIES = (("Gain", Kind.FLOAT, 1.0),)
