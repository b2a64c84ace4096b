"""The three benchmark workloads and the golden-digest bookkeeping.

Each workload is single-process, single-threaded and closed-loop: one
caller, and the next operation starts only after the previous one returned.
`--seed n` selects input set `n % VARIANTS`; golden.json holds the SHA-256
digest of every output of every input set, recorded from the untraced path.

Calls into the program go through the `provrun` package attributes, so
that the tracing shims, which replace those bindings, see them.

Every output is written under a fixed relative name inside a fresh working
directory, because a container's `info` block records
`ApplicationMgr.OutputFile` (and a derived container records its input
path): relative names make the digests independent of where the checkout
lives.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import provrun
from provrun import cli

VARIANTS = 32
HELD_OUT = (28, 29, 30, 31)  # recorded and checked, but never used while tuning
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# sizes the golden digests were recorded at; tests pass smaller ones
DEFAULT_SIZES = {
    "generate": {"events": 200_000},
    "replay": {"source_events": 100_000},
    "provenance": {"source_events": 100_000, "tiny_events": 16, "tiny_variants": 4},
}


class OpFailed(Exception):
    """An operation returned a failure instead of raising one."""


@dataclass
class OpResult:
    """What one timed operation did and what it produced.

    `outputs` maps a golden key to a file path or to bytes; the files are
    hashed after the timer stops, before the next operation overwrites them.
    """

    events: int
    outputs: dict[str, object] = field(default_factory=dict)


def config_seed(workload: str, variant: int, role: str) -> int:
    """A config seed that depends only on the workload, input set and role."""
    digest = hashlib.sha256(f"{workload}/{variant}/{role}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def random_job(output: str, seed: int, events: int, fields: int, *, sum_field: str,
               filter_field: str | None = None, gain: float | None = None) -> str:
    """Options text of `RandomEventSource -> [ThresholdFilter(Min=0.5) ->] Accumulator`."""
    chain = ["RandomEventSource", "ThresholdFilter", "Accumulator"]
    if filter_field is None:
        chain.remove("ThresholdFilter")
    lines = [
        f"ApplicationMgr.TopAlg = {json.dumps(chain)}",
        'ApplicationMgr.Services = ["MetaDataSvc"]',
        'ApplicationMgr.AppName = "perfbench"',
        f'ApplicationMgr.OutputFile = "{output}"',
        f"RandomEventSource.Seed = {seed}",
        f"RandomEventSource.NumEvents = {events}",
        f"RandomEventSource.FieldCount = {fields}",
        f'Accumulator.Field = "{sum_field}"',
    ]
    if filter_field is not None:
        lines += [f'ThresholdFilter.Field = "{filter_field}"', "ThresholdFilter.Min = 0.5"]
    if gain is not None:
        lines.append(f"DemoTool.Gain = {gain!r}")  # assigning a tool captures it
    return "\n".join(lines) + "\n"


def file_job(output: str, source: str, *, filter_field: str, sum_field: str) -> str:
    """Options text of `FileEventSource -> ThresholdFilter(Min=0.5) -> Accumulator`."""
    return "\n".join([
        'ApplicationMgr.TopAlg = ["FileEventSource", "ThresholdFilter", "Accumulator"]',
        'ApplicationMgr.Services = ["MetaDataSvc"]',
        'ApplicationMgr.AppName = "perfbench"',
        f'ApplicationMgr.OutputFile = "{output}"',
        f'FileEventSource.Input = "{source}"',
        f'ThresholdFilter.Field = "{filter_field}"',
        "ThresholdFilter.Min = 0.5",
        f'Accumulator.Field = "{sum_field}"',
    ]) + "\n"


def run_config(text: str):
    """Parse and run a job from its options text, as `provrun run` does."""
    job = provrun.run_job(provrun.parse_options(text))
    if not job.report.succeeded:
        raise OpFailed(job.report.error)
    return job


class _Discard(io.TextIOBase):
    """A text sink for the CLI's stdout and stderr."""

    def write(self, text: str) -> int:
        return len(text)


class Workload:
    """One input set of one workload; all files live in the current directory.

    `setup` builds the inputs and returns the golden keys of what it wrote;
    `run_op(i)` is the timed operation; `cycle` operations cover every
    distinct output, so recording that many captures all golden digests.
    """

    name = ""
    cycle = 1
    info_probe = ""  # output whose provenance the run samples between operations

    def __init__(self, variant: int, sizes: dict):
        self.variant = variant
        self.sizes = sizes

    def setup(self) -> dict[str, object]:
        return {}

    def run_op(self, index: int) -> OpResult:
        raise NotImplementedError

    def info_samples(self) -> list[float]:
        """extract_info latencies (seconds) the operations measured themselves."""
        return []


class Generate(Workload):
    """The paper's headline job and the write path: source, filter, sink."""

    name = "generate"
    info_probe = "out.pdc"

    def __init__(self, variant, sizes):
        super().__init__(variant, sizes)
        self.text = random_job("out.pdc", config_seed(self.name, variant, "source"),
                               sizes["events"], 4,
                               filter_field=f"f{variant % 4}",
                               sum_field=f"f{(variant + 1) % 4}")

    def run_op(self, index):
        job = run_config(self.text)
        return OpResult(job.report.events_seen, {"out.pdc": "out.pdc"})


class Replay(Workload):
    """The read and verify path: `provrun replay` of a derived container."""

    name = "replay"
    info_probe = "out.pdc"

    def setup(self):
        n = self.sizes["source_events"]
        # no filter: the source holds all n events, and the same blocks as its derivative
        run_config(random_job("source.pdc", config_seed(self.name, self.variant, "source"),
                              n, 4, sum_field="f1"))
        run_config(file_job("derived.pdc", "source.pdc",
                            filter_field=f"f{self.variant % 4}",
                            sum_field=f"f{(self.variant + 2) % 4}"))
        self._sink = _Discard()
        return {"source.pdc": "source.pdc", "derived.pdc": "derived.pdc"}

    def run_op(self, index):
        with contextlib.redirect_stdout(self._sink), contextlib.redirect_stderr(self._sink):
            code = cli.main(["replay", "derived.pdc", "out.pdc"])
        if code != 0:
            raise OpFailed(f"provrun replay exited with {code}")
        return OpResult(self.sizes["source_events"], {"out.pdc": "out.pdc"})


class Provenance(Workload):
    """Dataset-inspection traffic plus the fixed cost of one tiny job.

    Operation i runs tiny job `i % tiny_variants` (each with its own seed and
    `DemoTool.Gain`), reads its provenance, emits it, diffs it against the
    previous operation's dictionary, and reads the provenance of the large
    source container, which must touch only its TOC and `info` block.
    """

    name = "provenance"

    def __init__(self, variant, sizes):
        super().__init__(variant, sizes)
        self.cycle = sizes["tiny_variants"] + 1
        self.tiny_texts = [
            random_job("tiny.pdc", config_seed(self.name, variant, f"tiny{k}"),
                       sizes["tiny_events"], 2, filter_field="f0", sum_field="f1",
                       gain=1.5 + k + variant % 3)
            for k in range(sizes["tiny_variants"])]
        self._reads: list[float] = []

    def setup(self):
        # the same block names as the tiny containers, so both TOCs are equally long
        run_config(random_job("source.pdc", config_seed(self.name, self.variant, "source"),
                              self.sizes["source_events"], 4, sum_field="f1"))
        self.source_info = provrun.extract_info("source.pdc")
        self._previous = self.source_info
        self._reads = []
        return {"source.pdc": "source.pdc", "source.emit": self.source_info.emit().encode()}

    def run_op(self, index):
        k = index % len(self.tiny_texts)
        job = run_config(self.tiny_texts[k])
        start = perf_counter()
        info = provrun.extract_info("tiny.pdc")
        self._reads.append(perf_counter() - start)
        text = info.emit()
        report = provrun.diff_dictionaries(self._previous, info)
        self._previous = info
        start = perf_counter()
        source_info = provrun.extract_info("source.pdc")
        self._reads.append(perf_counter() - start)
        if source_info != self.source_info:
            raise OpFailed("provenance of the source container changed between reads")
        diff_key = "diff-start" if index == 0 else f"diff-{k}"
        rendered = json.dumps([report.only_left, report.only_right, report.changed])
        return OpResult(job.report.events_seen, {
            f"tiny-{k}.pdc": "tiny.pdc",
            f"tiny-{k}.emit": text.encode(),
            diff_key: rendered.encode(),
        })

    def info_samples(self):
        return self._reads


WORKLOADS = {cls.name: cls for cls in (Generate, Replay, Provenance)}


def digest(output) -> str:
    """SHA-256 of bytes, or of the file at a path."""
    data = output if isinstance(output, bytes) else Path(output).read_bytes()
    return hashlib.sha256(data).hexdigest()


def mismatches(outputs: dict, golden: dict) -> list[str]:
    """Golden keys whose output differs from, or is missing in, the golden set."""
    return [key for key, output in outputs.items()
            if golden.get(key) != digest(output)]


@contextlib.contextmanager
def fresh_directory(path: Path):
    """Run the body inside an empty `path`, removed again afterwards."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(previous)
        shutil.rmtree(path, ignore_errors=True)


def clear_directory() -> None:
    """Remove the files a previous set-up left in the current directory."""
    for entry in os.listdir("."):
        os.remove(entry)


def record(name: str, variant: int, sizes: dict, workdir: Path) -> dict[str, str]:
    """Digests of every output of one input set, from one set-up and one cycle."""
    workload = WORKLOADS[name](variant, sizes)
    with fresh_directory(workdir):
        digests = {key: digest(out) for key, out in workload.setup().items()}
        for index in range(workload.cycle):
            outputs = workload.run_op(index).outputs
            digests.update((key, digest(out)) for key, out in outputs.items())
    return digests


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
