"""The fixed demo algorithm catalogue.

Deliberately small and fully deterministic: a pseudo-random source, a
file-backed source (which is what gives jobs input lineage), a threshold
filter that can veto events, and an accumulating sink. Together they
exercise the source/filter/sink roles the provenance capture has to cover.
"""

from __future__ import annotations

import os

from .components import Component, ComponentKind
from .container import ContainerReader
from .errors import AlgorithmFailure, CorruptContainer, InvalidConfiguration, LineageMissing
from .events import decode_events
from .options import Kind
from .rng import SplitMix64


class Algorithm(Component):
    kind = ComponentKind.ALGORITHM

    def start(self, job) -> None:
        pass

    def process(self, job, event) -> bool:
        """Handle one event; returning False vetoes it for the rest of the chain."""
        return True

    def finish(self, job) -> None:
        pass


class EventSource(Algorithm):
    """An algorithm that also produces the event stream (first in the chain)."""

    def plan(self, job) -> int:
        """Number of events this run will produce; called once per job."""
        raise NotImplementedError

    def field_names(self) -> list[str]:
        raise NotImplementedError


class RandomEventSource(EventSource):
    """Uniform [0,1) fields f0..f{k-1}, one SplitMix64 draw per field per
    event in event-major order; identical seeds give identical payloads."""

    PROPERTIES = (
        ("Seed", Kind.INTEGER, 0),
        ("NumEvents", Kind.INTEGER, 10),
        ("FieldCount", Kind.INTEGER, 1),
    )

    def plan(self, job) -> int:
        count = self.value("NumEvents")
        fields = self.value("FieldCount")
        if count < 0 or fields < 0:
            raise AlgorithmFailure("NumEvents and FieldCount must be non-negative")
        self._rng = SplitMix64(self.value("Seed"))
        self._names = [f"f{i}" for i in range(fields)]
        return count

    def field_names(self) -> list[str]:
        return list(self._names)

    def process(self, job, event) -> bool:
        for name in self._names:
            job.events.put(name, self._rng.next_double())
        return True


class FileEventSource(EventSource):
    """Replays the `events` block of an existing container as the input
    stream, recording the file's identity (path + checksum) as lineage."""

    PROPERTIES = (("Input", Kind.TEXT, ""),)

    def start(self, job) -> None:
        """Read and verify the input here, so that a missing, changed or
        self-overwriting input fails initialize and no output is written."""
        path = self.value("Input")
        if not path:
            raise AlgorithmFailure(f"{self.name}.Input is not set")
        if not os.path.exists(path):
            if len(job.lineage) in job.expected_inputs:
                raise LineageMissing(f"declared input {path!r} no longer exists")
            raise AlgorithmFailure(f"input container {path!r} does not exist")
        output = job.app.value("OutputFile")
        if output and os.path.exists(output) and os.path.samefile(path, output):
            raise InvalidConfiguration(
                f"ApplicationMgr.OutputFile {output!r} would overwrite the input "
                f"{path!r}")
        try:
            with ContainerReader(path) as reader:
                payload = reader.read_block("events")
                crc = reader.block_crc("events")
        except CorruptContainer as exc:
            raise AlgorithmFailure(f"cannot read input {path!r}: {exc}") from exc
        self._names, self._rows = decode_events(payload)
        job.record_input(path, crc)

    def plan(self, job) -> int:
        return len(self._rows)

    def field_names(self) -> list[str]:
        return list(self._names)

    def process(self, job, event) -> bool:
        for name, value in zip(self._names, self._rows[event.index]):
            job.events.put(name, value)
        return True


class ThresholdFilter(Algorithm):
    """Vetoes every event whose field is below Min."""

    PROPERTIES = (
        ("Field", Kind.TEXT, "f0"),
        ("Min", Kind.FLOAT, 0.0),
    )

    def process(self, job, event) -> bool:
        return job.events.get(self.value("Field")) >= self.value("Min")


class Accumulator(Algorithm):
    """Sums a field over the events that reach it and writes the total into
    a `summary` payload block at finalize."""

    PROPERTIES = (("Field", Kind.TEXT, "f0"),)

    def start(self, job) -> None:
        self._sum = 0.0
        self._count = 0

    def process(self, job, event) -> bool:
        self._sum += job.events.get(self.value("Field"))
        self._count += 1
        return True

    def finish(self, job) -> None:
        from .options import OptionsSet, emit_canonical

        summary = OptionsSet()
        summary.set(f"{self.name}.Count", self._count)
        summary.set(f"{self.name}.Sum", self._sum)
        job.writer.add_block("summary", emit_canonical(summary).encode("utf-8"))


class DemoTool(Component):
    """The one catalogued tool; exists so the capture traversal over tools
    is exercised for real."""

    kind = ComponentKind.TOOL
    PROPERTIES = (("Gain", Kind.FLOAT, 1.0),)

    def amplify(self, value: float) -> float:
        return value * self.value("Gain")
