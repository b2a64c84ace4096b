"""provrun's benchmark: one workload, one seed, one run; the result is the
last line of stdout, one JSON object.

    python3 perfbench/run.py --workload generate --seed 3 --seconds 30 --trace 0

With `--trace 0` the run measures the end-to-end metrics of BENCHMARK.json
with no tracing installed. With `--trace 1` it runs the operations untraced
for half the time and traced for the other half, and reports the per-layer
metrics of BENCHMARK.json (per traced operation) plus the tracing overhead.
Every output of every operation is checked against golden.json; an
operation fails when it raises, exits non-zero, or changes one byte.

The program is imported from `src/` of the checkout this file sits in; the
run fails with exit code 2 when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
INFO_PROBE_READS = 8000


def import_provrun():
    """Import the program from this checkout's `src/`, and nothing else."""
    sys.path.insert(0, str(SRC))
    import provrun
    if not Path(provrun.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"provrun was imported from {provrun.__file__}, not {SRC}")
    return provrun


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {group: {m["name"]: m["unit"] for m in spec[group]}
            for group in ("end_to_end", "per_layer")}


def src_lines() -> int:
    """Line count of the program's sources, reported next to the numbers."""
    return sum(len(path.read_bytes().splitlines())
               for path in sorted((SRC / "provrun").rglob("*.py")))


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def fresh_import() -> None:
    """`import provrun` in a new interpreter."""
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, sys.argv[1]); import provrun",
                    str(SRC)], check=True)


class Run:
    """The operations of one run, their checks and their timings."""

    def __init__(self, workload, golden: dict):
        self.workload = workload
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.setup_ok = True
        self.latencies: list[float] = []
        self.events = 0
        self.next_index = 0
        self.inputs: set[str] = set()
        self.info_samples: list[float] = []
        self.errors: list[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def setup(self) -> float:
        """One set-up: a fresh-process import, the workload's inputs, and one
        warm-up operation (index 0), so the timed operations start warm and
        the set-up is long enough to average over the sandbox's phases."""
        from workloads import clear_directory, mismatches
        clear_directory()
        start = perf_counter()
        fresh_import()
        outputs = self.workload.setup()
        self.inputs = set(os.listdir("."))
        outputs.update(self.workload.run_op(0).outputs)
        elapsed = perf_counter() - start
        self.next_index = 1
        wrong = mismatches(outputs, self.golden)
        if wrong:
            self.setup_ok = False
            self.errors.append(f"set-up outputs differ from golden: {wrong}")
        return elapsed

    def probe_info(self, count: int) -> None:
        """extract_info latencies on the container the last operation wrote,
        as a user inspecting the dataset would see them; outside the
        operation's time."""
        import provrun
        while len(self.info_samples) < count:
            start = perf_counter()
            provrun.extract_info(self.workload.info_probe)
            self.info_samples.append(perf_counter() - start)

    def loop(self, seconds: float, tracer=None, info_reads: int = 0) -> list[float]:
        """Closed loop for `seconds` (at least one operation); returns the
        latencies of the operations that passed. With `info_reads`, the
        workload's info probe takes that many samples, spread over the loop
        so that they see the same machine as the operations."""
        from workloads import mismatches
        passed = []
        started = perf_counter()
        deadline = started + seconds
        first = True
        while first or perf_counter() < deadline:
            first = False
            index = self.next_index
            self.next_index += 1
            self.attempted += 1
            for name in os.listdir("."):
                if name not in self.inputs:
                    os.remove(name)  # so a missing output cannot pass as a stale one
            if tracer is not None:
                tracer.begin_op(index)
            start = perf_counter()
            try:
                result = self.workload.run_op(index)
            except Exception:
                self._fail(f"operation {index} raised:\n{traceback.format_exc()}")
                continue
            finally:
                elapsed = perf_counter() - start
                if tracer is not None:
                    tracer.end_op()
            wrong = mismatches(result.outputs, self.golden)
            if wrong:
                self._fail(f"operation {index}: outputs differ from golden: {wrong}")
                continue
            passed.append(elapsed)
            self.events += result.events
            if info_reads:
                self.probe_info(int(info_reads * min(1.0, (perf_counter() - started) / seconds)))
        if info_reads and passed:
            self.probe_info(info_reads)
        self.latencies.extend(passed)
        return passed


def end_to_end(run: Run, setup_times: list[float], info_samples: list[float]) -> dict:
    """Operation and read times are taken at the 90th percentile, not the
    median. The machine switches between a fast and a slow state (about
    1.4x apart for an operation, 1.7x for a read) every few seconds to
    minutes, and the share of fast time differs from run to run: the median
    lands in either state, while nine in ten samples are at least as fast
    as the slow state's typical one. Tails beyond the 95th percentile follow
    the machine's interference bursts and are not steady from run to run."""
    op_s = percentile(run.latencies, 90) if run.latencies else 0.0
    return {
        "setup_s": statistics.median(setup_times),
        "events_per_s": run.events / len(run.latencies) / op_s if op_s else 0.0,
        "jobs_per_s": 1 / op_s if op_s else 0.0,
        "info_read_ms_p90": 1e3 * percentile(info_samples, 90) if info_samples else 0.0,
        "info_read_ms_p95": 1e3 * percentile(info_samples, 95) if info_samples else 0.0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run(name: str, seed: int, seconds: float, trace: bool, *, sizes=None, golden=None,
        workdir: Path | None = None, spans_path: Path | None = None,
        setup_repeats: int = SETUP_REPEATS, info_reads: int = INFO_PROBE_READS):
    """One benchmark run; returns the result object and lines of notes."""
    import workloads
    from tracing import Tracer, namespace_snapshot

    variant = seed % workloads.VARIANTS
    if sizes is None:
        sizes = workloads.DEFAULT_SIZES[name]
    if golden is None:
        recorded = workloads.load_golden()
        if recorded["sizes"] != workloads.DEFAULT_SIZES:
            raise RuntimeError("golden.json was recorded at other sizes; re-record it")
        golden = recorded["digests"][name][str(variant)]
    workload = workloads.WORKLOADS[name](variant, sizes)
    run_ = Run(workload, golden)
    workdir = workdir or ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    notes = [f"workload={name} seed={seed} input_set={variant} "
             f"held_out={'yes' if variant in workloads.HELD_OUT else 'no'} "
             f"src_provrun_lines={src_lines()}"]
    checks_ok = True
    with workloads.fresh_directory(workdir):
        repeats = setup_repeats if not trace else 1
        setup_times = [run_.setup() for _ in range(repeats)]
        if not trace:
            run_.loop(seconds, info_reads=info_reads if workload.info_probe else 0)
            info_samples = run_.info_samples or workload.info_samples()
            metrics = end_to_end(run_, setup_times, info_samples)
            notes.append(f"ops={run_.attempted} failed={run_.failed} "
                         f"setup_repeats={repeats} info_read_samples={len(info_samples)}")
        else:
            untraced = run_.loop(seconds / 2)
            before = namespace_snapshot()
            tracer = Tracer()
            with tracer:
                traced = run_.loop(seconds / 2, tracer)
            restored = namespace_snapshot() == before
            reads = {path: sorted(sizes_) for path, sizes_ in tracer.extract_info_reads.items()}
            toc_only = len({n for sizes_ in reads.values() for n in sizes_}) <= 1
            checks_ok = restored and toc_only
            metrics = tracer.per_layer()
            untraced_s = statistics.median(untraced) if untraced else 0.0
            traced_s = statistics.median(traced) if traced else 0.0
            metrics.update({"trace.untraced_op_s": untraced_s,
                            "trace.traced_op_s": traced_s,
                            "trace.overhead_s": traced_s - untraced_s})
            if spans_path is not None:
                spans_path.parent.mkdir(parents=True, exist_ok=True)
                tracer.write_spans(spans_path)
                notes.append(f"spans={len(tracer.spans)} written to {spans_path}")
            notes.append(f"ops={run_.attempted} (untraced {len(untraced)}, traced "
                         f"{tracer.ops}) failed={run_.failed} provrun_restored={restored} "
                         f"extract_info_bytes_besides_info_by_path={reads}")
            if not restored:
                notes.append("error: the tracing shims left provrun patched")
            if not toc_only:
                notes.append("error: extract_info read different byte counts per container")
    notes.extend(run_.errors)
    result = {
        "correct": run_.failed == 0 and run_.setup_ok and checks_ok,
        "attempted": run_.attempted,
        "failed": run_.failed,
        "metrics": metrics,
    }
    return result, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_provrun()
    except ImportError as exc:
        print(f"perfbench: cannot import provrun from {SRC}: {exc}", file=sys.stderr)
        return 2
    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    result, notes = run(args.workload, args.seed, args.seconds, bool(args.trace),
                        spans_path=spans if args.trace else None)
    if set(result["metrics"]) != set(declared):
        print(f"perfbench: measured metrics {sorted(result['metrics'])} do not match "
              f"BENCHMARK.json {sorted(declared)}", file=sys.stderr)
        return 2
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                         for name, unit in declared.items()}
    for line in notes:
        print(f"perfbench: {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
