"""Tracing shims around the public functions of each `provrun` module.

The shims live here, in the benchmark, not in the program: `Tracer`
replaces each traced function in every namespace that binds it (for
example `crc32c` is bound in both `provrun.crc` and `provrun.container`,
so patching one module alone would miss most calls), meters the bytes
`provrun.container` reads and writes through its files, and puts every
original back on exit.

Per-event functions (source draws, `process`, the event store) only add to
per-name totals. Every other shim also records a span (id, parent id,
operation id, name, start, end) in memory; `write_spans` writes them out
once the traced run is over. Times are inclusive: a span's time contains
the time of the spans it caused.
"""

from __future__ import annotations

import builtins
import functools
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import provrun
import provrun.container

DEMO_ALGORITHMS = ("RandomEventSource", "FileEventSource", "ThresholdFilter", "Accumulator")


def _count_len(counter, arg):
    def hook(tracer, args, result):
        tracer.counts[counter] += len(args[arg])
    return hook


def _count_passed(alg):
    counter = f"algorithms.{alg}.events_passed"

    def hook(tracer, args, result):
        if result:
            tracer.counts[counter] += 1
    return hook


def _count_job_events(tracer, args, result):
    report = args[0].report
    tracer.counts["core.events_seen"] += report.events_seen
    tracer.counts["core.events_written"] += report.events_written


def _count_decoded(tracer, args, result):
    tracer.counts["events.rows_decoded"] += len(result[1])


def _count_lines(tracer, args, result):
    tracer.counts["options.parse_lines"] += args[0].count("\n") + 1


def _count_info_payload(tracer, args, result):
    if args[1] == provrun.container.INFO_BLOCK:
        tracer.info_payload_bytes += len(result)


def _count_entries(tracer, args, result):
    tracer.counts["provenance.entries"] += len(result)


# (module, attribute, time metric or None, call-count metric or None,
#  records spans, hook(tracer, args, result) run after each call)
SHIMS = (
    ("provrun.crc", "crc32c", "crc.s", "crc.calls", True, _count_len("crc.bytes", 0)),
    ("provrun.rng", "SplitMix64.next_double", "rng.s", None, False, None),
    ("provrun.rng", "SplitMix64.next_uint64", "rng.s", "rng.draws", False, None),
    *(("provrun.algorithms", f"{alg}.process", f"algorithms.{alg}.process_s",
       f"algorithms.{alg}.events_in", False, _count_passed(alg))
      for alg in DEMO_ALGORITHMS),
    ("provrun.algorithms", "FileEventSource.plan", "algorithms.FileEventSource.plan_s",
     None, True, None),
    ("provrun.core", "Job.initialize", "core.initialize_s", None, True, None),
    ("provrun.core", "Job.execute", "core.execute_s", None, True, _count_job_events),
    ("provrun.core", "Job.finalize", "core.finalize_s", None, True, None),
    ("provrun.services", "JobOptionsSvc.apply_all", "services.apply_s", None, True, None),
    ("provrun.services", "EventDataSvc.put", "services.event_store_s",
     "services.event_store_calls", False, None),
    ("provrun.services", "EventDataSvc.get", "services.event_store_s",
     "services.event_store_calls", False, None),
    ("provrun.services", "ContainerWriterSvc.write", "services.writer_write_s",
     None, True, None),
    ("provrun.events", "encode_events", "events.encode_s", None, True,
     _count_len("events.rows_encoded", 1)),
    ("provrun.events", "decode_events", "events.decode_s", None, True, _count_decoded),
    ("provrun.container", "write_container", "container.write_s", None, True, None),
    ("provrun.container", "ContainerReader.read_block", "container.read_block_s",
     None, True, _count_info_payload),
    ("provrun.container", "extract_info", "container.extract_info_s",
     "container.extract_info_calls", True, None),
    ("provrun.options", "parse_options", "options.parse_s", None, True, _count_lines),
    ("provrun.options", "emit_canonical", "options.emit_s", "options.emit_calls",
     True, None),
    ("provrun.options", "parse_value", None, "options.parse_value_calls", False, None),
    ("provrun.provenance", "MetaDataSvc.collect_data", "provenance.collect_s", None,
     True, _count_entries),
    ("provrun.metadata", "MetadataDictionary.emit", "metadata.emit_s", None, True, None),
    ("provrun.metadata", "MetadataDictionary.to_options", "metadata.to_options_s",
     None, True, None),
    ("provrun.diff", "diff_dictionaries", "diff.s", None, True, None),
)


def provrun_modules() -> list:
    return [module for name, module in sorted(sys.modules.items())
            if name == "provrun" or name.startswith("provrun.")]


def namespace_snapshot() -> dict:
    """Identity of every binding in every provrun module and class."""
    snapshot = {}
    for module in provrun_modules():
        for key, value in vars(module).items():
            snapshot[(module.__name__, key)] = id(value)
            if isinstance(value, type) and value.__module__.startswith("provrun"):
                for attr, member in vars(value).items():
                    snapshot[(module.__name__, key, attr)] = id(member)
    return snapshot


class _MeteredFile:
    """A file object that adds the bytes it reads and writes to the tracer."""

    def __init__(self, handle, tracer):
        self._handle = handle
        self._tracer = tracer

    def read(self, size=-1):
        data = self._handle.read(size)
        self._tracer.bytes_read += len(data)
        return data

    def write(self, data):
        written = self._handle.write(data)
        self._tracer.bytes_written += written
        return written

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()


class Tracer:
    """Installs the shims on `__enter__` and restores every original on `__exit__`."""

    def __init__(self):
        self.times = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans: list[tuple] = []
        self.bytes_read = 0
        self.bytes_written = 0
        self.info_payload_bytes = 0
        self.file_bytes_in_ops = 0
        self.extract_info_reads: dict[str, set[int]] = defaultdict(set)
        self.ops = 0
        self._op = None
        self._files: set[str] = set()
        self._stack: list[int] = []
        self._active: set[str] = set()
        self._patches: list[tuple] = []

    # --- operations -------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self._op = op_id
        self._files = set()

    def end_op(self) -> None:
        """Close one operation: count it and the container files it touched."""
        self.ops += 1
        self.file_bytes_in_ops += sum(os.path.getsize(path) for path in self._files
                                      if os.path.exists(path))
        self._op = None

    # --- installation -----------------------------------------------------

    def __enter__(self):
        try:
            for module_name, attr, time_key, calls_key, span, hook in SHIMS:
                self._install(module_name, attr, time_key, calls_key, span, hook)
            self._install_extract_info_meter()
            self._set(provrun.container, "open", self._metered_open)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()

    def _set(self, owner, attr, value) -> None:
        had = attr in vars(owner)
        self._patches.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, had, original = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _install(self, module_name, attr, time_key, calls_key, span, hook) -> None:
        owner = sys.modules[module_name]
        *class_path, name = attr.split(".")
        for part in class_path:
            owner = getattr(owner, part)
        original = vars(owner)[name]
        wrapper = self._wrap(original, attr, time_key, calls_key, span, hook)
        if class_path:  # a method: the class is its one binding
            self._set(owner, name, wrapper)
        else:
            self._rebind(original, wrapper)

    def _rebind(self, original, replacement) -> None:
        """Replace a function in every provrun module that binds it."""
        for module in provrun_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, replacement)

    def _wrap(self, fn, name, time_key, calls_key, span, hook):
        tracer = self
        times, counts, active = self.times, self.counts, self._active

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if time_key is None or time_key in active:
                # untimed, or nested in a call already timed under this metric
                result = fn(*args, **kwargs)
            else:
                active.add(time_key)
                if span:
                    span_id = len(tracer.spans)
                    parent = tracer._stack[-1] if tracer._stack else None
                    tracer.spans.append(None)
                    tracer._stack.append(span_id)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    active.discard(time_key)
                    times[time_key] += end - start
                    if span:
                        tracer._stack.pop()
                        tracer.spans[span_id] = (span_id, parent, tracer._op, name,
                                                 start, end)
            if calls_key is not None:
                counts[calls_key] += 1
            if hook is not None:
                hook(tracer, args, result)
            return result

        return shim

    def _install_extract_info_meter(self) -> None:
        """Record, per path, the bytes one extract_info call read besides the
        info block itself: the header, the TOC and the trailer when the read
        path stays TOC-only."""
        shim = provrun.container.extract_info  # already wrapped above
        original = shim.__wrapped__

        @functools.wraps(original)
        def metered(path):
            read_before, info_before = self.bytes_read, self.info_payload_bytes
            result = shim(path)
            overhead = ((self.bytes_read - read_before)
                        - (self.info_payload_bytes - info_before))
            self.counts["container.extract_info_overhead_bytes"] += overhead
            self.extract_info_reads[os.fspath(path)].add(overhead)
            return result

        self._rebind(shim, metered)

    def _metered_open(self, file, mode="r", *args, **kwargs):
        handle = builtins.open(file, mode, *args, **kwargs)
        self._files.add(os.path.abspath(file))
        return _MeteredFile(handle, self)

    # --- results ----------------------------------------------------------

    def per_layer(self) -> dict[str, float]:
        """Per-operation values of every per-layer metric."""
        ops = max(self.ops, 1)
        t, c = self.times, self.counts
        out = {}
        out["crc.calls"] = c["crc.calls"] / ops
        out["crc.bytes"] = c["crc.bytes"] / ops
        out["crc.s"] = t["crc.s"] / ops
        out["crc.mib_per_s"] = (c["crc.bytes"] / 2**20 / t["crc.s"]) if t["crc.s"] else 0.0
        out["crc.bytes_per_container_byte"] = (
            c["crc.bytes"] / self.file_bytes_in_ops if self.file_bytes_in_ops else 0.0)
        out["rng.draws"] = c["rng.draws"] / ops
        out["rng.s"] = t["rng.s"] / ops
        for alg in DEMO_ALGORITHMS:
            base = f"algorithms.{alg}"
            out[f"{base}.process_s"] = t[f"{base}.process_s"] / ops
            out[f"{base}.events_in"] = c[f"{base}.events_in"] / ops
            out[f"{base}.events_passed"] = c[f"{base}.events_passed"] / ops
        out["algorithms.FileEventSource.plan_s"] = t["algorithms.FileEventSource.plan_s"] / ops
        for phase in ("initialize", "execute", "finalize"):
            out[f"core.{phase}_s"] = t[f"core.{phase}_s"] / ops
        out["core.events_seen"] = c["core.events_seen"] / ops
        out["core.events_written"] = c["core.events_written"] / ops
        out["core.keep_ratio"] = (c["core.events_written"] / c["core.events_seen"]
                                  if c["core.events_seen"] else 0.0)
        out["services.apply_s"] = t["services.apply_s"] / ops
        out["services.event_store_calls"] = c["services.event_store_calls"] / ops
        out["services.event_store_s"] = t["services.event_store_s"] / ops
        out["services.writer_write_s"] = t["services.writer_write_s"] / ops
        out["events.encode_s"] = t["events.encode_s"] / ops
        out["events.decode_s"] = t["events.decode_s"] / ops
        out["events.rows_encoded"] = c["events.rows_encoded"] / ops
        out["events.rows_decoded"] = c["events.rows_decoded"] / ops
        out["container.write_s"] = t["container.write_s"] / ops
        out["container.bytes_written"] = self.bytes_written / ops
        out["container.read_block_s"] = t["container.read_block_s"] / ops
        out["container.bytes_read"] = self.bytes_read / ops
        out["container.extract_info_s"] = t["container.extract_info_s"] / ops
        calls = c["container.extract_info_calls"]
        out["container.extract_info_bytes_read"] = (
            c["container.extract_info_overhead_bytes"] / calls if calls else 0.0)
        out["options.parse_s"] = t["options.parse_s"] / ops
        out["options.parse_lines"] = c["options.parse_lines"] / ops
        out["options.emit_s"] = t["options.emit_s"] / ops
        out["options.emit_calls"] = c["options.emit_calls"] / ops
        out["options.parse_value_calls"] = c["options.parse_value_calls"] / ops
        out["provenance.collect_s"] = t["provenance.collect_s"] / ops
        out["provenance.entries"] = c["provenance.entries"] / ops
        out["metadata.emit_s"] = t["metadata.emit_s"] / ops
        out["metadata.to_options_s"] = t["metadata.to_options_s"] / ops
        out["diff.s"] = t["diff.s"] / ops
        return out

    def write_spans(self, path) -> None:
        """Write the spans as JSON lines: id, parent, op, name, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(span) + "\n")
