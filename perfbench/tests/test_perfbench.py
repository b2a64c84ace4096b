"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

provrun = bench.import_provrun()

import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "generate": {"events": 300},
    "replay": {"source_events": 200},
    "provenance": {"source_events": 3000, "tiny_events": 16, "tiny_variants": 2},
}
SEED = 5


def tiny_run(name, tmp_path, *, trace=False, golden=None):
    if golden is None:
        golden = workloads.record(name, SEED, TINY[name], tmp_path / "record")
    return bench.run(name, SEED, 0.3, trace, sizes=TINY[name], golden=golden,
                     workdir=tmp_path / "work", spans_path=tmp_path / "spans.jsonl",
                     setup_repeats=2, info_reads=20)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_declared_metric(name, trace, tmp_path):
    result, notes = tiny_run(name, tmp_path, trace=trace)
    declared = bench.declared_metrics()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == set(declared)
    assert result["correct"], notes
    assert result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert all(value > 0 for value in result["metrics"].values()), result["metrics"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_wrong_golden_digest_is_a_failed_operation(name, tmp_path):
    golden = workloads.record(name, SEED, TINY[name], tmp_path / "record")
    op_keys = [key for key in golden if key.endswith(".pdc") and "source" not in key
               and "derived" not in key]
    for key in op_keys:
        golden[key] = "0" * 64
    result, _ = tiny_run(name, tmp_path, golden=golden)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1


def test_wrong_setup_digest_makes_the_run_incorrect(tmp_path):
    golden = workloads.record("replay", SEED, TINY["replay"], tmp_path / "record")
    golden["source.pdc"] = "0" * 64
    result, _ = tiny_run("replay", tmp_path, golden=golden)
    assert not result["correct"]


def test_traced_run_leaves_provrun_unpatched(tmp_path):
    before = tracing.namespace_snapshot()
    original = provrun.crc.crc32c
    with tracing.Tracer():
        # every namespace that binds the function sees the shim
        assert provrun.crc.crc32c is not original
        assert provrun.container.crc32c is provrun.crc.crc32c
        assert "open" in vars(provrun.container)
    assert tracing.namespace_snapshot() == before
    result, _ = tiny_run("replay", tmp_path, trace=True)
    assert result["correct"]
    assert tracing.namespace_snapshot() == before
    assert "open" not in vars(provrun.container)
    assert provrun.container.crc32c is original


def test_extract_info_reads_only_the_toc_of_a_large_container(tmp_path):
    workload = workloads.Provenance(SEED, TINY["provenance"])
    with workloads.fresh_directory(tmp_path / "work"):
        workload.setup()
        tracer = tracing.Tracer()
        with tracer:
            for index in range(3):
                tracer.begin_op(index)
                workload.run_op(index)
                tracer.end_op()
    reads = tracer.extract_info_reads
    assert set(reads) == {"tiny.pdc", "source.pdc"}
    assert reads["tiny.pdc"] == reads["source.pdc"] and len(reads["tiny.pdc"]) == 1
    assert tracer.per_layer()["container.extract_info_bytes_read"] == next(iter(reads["tiny.pdc"]))


def test_layer_map_names_every_per_layer_metric():
    with open(BENCH / "layers.json", encoding="utf-8") as handle:
        layers = json.load(handle)["layers"]
    mapped = [metric for layer in layers for metric in layer["metrics"]]
    assert sorted(mapped) == sorted(bench.declared_metrics()["per_layer"])


def test_golden_file_covers_every_input_set():
    golden = workloads.load_golden()
    assert golden["sizes"] == workloads.DEFAULT_SIZES
    assert golden["held_out"] and set(golden["held_out"]) < set(range(workloads.VARIANTS))
    for name in workloads.WORKLOADS:
        assert sorted(golden["digests"][name], key=int) == [
            str(v) for v in range(workloads.VARIANTS)]


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "generate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
