"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; plain `pytest -v` shows one PASSED/FAILED row per criterion instead.
"""

import hashlib
import random

import pytest

from provrun import (
    ContainerReader,
    MetadataDictionary,
    OptionsSet,
    emit_canonical,
    extract_info,
    parse_options,
    read_block,
    run_job,
    value_to_text,
    write_container,
)
from provrun.cli import EXIT_OK, EXIT_VERIFY, main
from provrun.errors import BadMagic, ChecksumMismatch, UnknownBlock

from helpers import demo_config, random_demo_config, random_options_set


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def write_config(path, config):
    path.write_text(emit_canonical(config), encoding="utf-8")


def test_c1_grammar_round_trip():
    rnd = random.Random(20250101)
    failures = 0
    for _ in range(1000):
        s = random_options_set(rnd, max_keys=50)
        emitted = emit_canonical(s)
        reparsed = parse_options(emitted)
        if reparsed != s or emit_canonical(reparsed) != emitted:
            failures += 1
    report(1, failures == 0,
           f"1000 randomized sets round-trip and re-emit byte-identically "
           f"({failures} failures)")


def test_c2_capture_completeness(tmp_path):
    rnd = random.Random(424242)
    misses = 0
    checked = 0
    for trial in range(200):
        out = tmp_path / f"cfg{trial}.pdc"
        config = random_demo_config(rnd, out)
        job = run_job(config)
        assert job.report.succeeded, job.report.error
        snapshot = extract_info(out)
        for key, value in job.options_svc.applied_log:
            checked += 1
            if snapshot.get(key.text) != value_to_text(value):
                misses += 1
    report(2, misses == 0,
           f"200 randomized configs: {checked} applied assignments all appear "
           f"in the extracted info dictionary ({misses} misses)")


def curated_configs(base):
    """Five demo configs; the last is a depth-2 file-source chain."""
    mid = base / "stage1.pdc"
    stage1 = demo_config(mid, algorithms=("RandomEventSource",),
                         RandomEventSource__Seed=99,
                         RandomEventSource__NumEvents=25,
                         RandomEventSource__FieldCount=2)
    run_job(stage1)

    configs = {
        "source_only": demo_config(
            base / "source_only.pdc", algorithms=("RandomEventSource",),
            RandomEventSource__Seed=7, RandomEventSource__NumEvents=20),
        "filtered": demo_config(
            base / "filtered.pdc",
            RandomEventSource__Seed=11, RandomEventSource__NumEvents=40,
            RandomEventSource__FieldCount=2,
            ThresholdFilter__Field="f1", ThresholdFilter__Min=0.3),
        "full_chain": demo_config(
            base / "full_chain.pdc",
            algorithms=("RandomEventSource", "ThresholdFilter", "Accumulator"),
            RandomEventSource__Seed=13, RandomEventSource__NumEvents=30,
            ThresholdFilter__Min=0.25, Accumulator__Field="f0",
            DemoTool__Gain=2.5, ApplicationMgr__AppName="analysis",
            ApplicationMgr__AppVersion="v7r2"),
        "veto_all": demo_config(
            base / "veto_all.pdc",
            RandomEventSource__Seed=17, RandomEventSource__NumEvents=15,
            ThresholdFilter__Min=2.0),
        "file_chain_depth2": demo_config(
            base / "file_chain.pdc",
            algorithms=("FileEventSource", "ThresholdFilter", "Accumulator"),
            FileEventSource__Input=str(mid),
            ThresholdFilter__Field="f1", ThresholdFilter__Min=0.5),
    }
    return configs


def replay_and_compare(original, target):
    code = main(["replay", str(original), str(target)])
    assert code == EXIT_OK, f"replay of {original} exited {code}"
    events_equal = read_block(original, "events") == read_block(target, "events")
    left = extract_info(original).without("ApplicationMgr.OutputFile")
    right = extract_info(target).without("ApplicationMgr.OutputFile")
    return events_equal and left == right


def test_c3_replay_fixed_point(tmp_path):
    all_ok = True
    for name, config in curated_configs(tmp_path).items():
        job = run_job(config)
        assert job.report.succeeded, f"{name}: {job.report.error}"
        original = tmp_path / job.report.output_path
        first = tmp_path / f"{name}_replay1.pdc"
        second = tmp_path / f"{name}_replay2.pdc"
        all_ok &= replay_and_compare(original, first)
        all_ok &= replay_and_compare(first, second)  # idempotence
    report(3, all_ok,
           "5 curated configs (incl. depth-2 file chain): replay and "
           "replay-of-replay are byte-identical modulo the output path")


def test_c4_original_config_independence(tmp_path):
    out = tmp_path / "job.pdc"
    config_path = tmp_path / "job.opts"
    write_config(config_path, demo_config(out, RandomEventSource__Seed=31,
                                          RandomEventSource__NumEvents=50))
    assert main(["run", str(config_path)]) == EXIT_OK
    with ContainerReader(out) as reader:
        original_crc = reader.block_crc("events")
    config_path.unlink()  # the original configuration file is gone

    replayed = tmp_path / "replayed.pdc"
    code = main(["replay", str(out), str(replayed)])
    with ContainerReader(replayed) as reader:
        new_crc = reader.block_crc("events")
    report(4, code == EXIT_OK and new_crc == original_crc,
           f"replay after deleting the config file reproduces payload "
           f"checksum {original_crc}")


def test_c5_single_value_diff(tmp_path):
    out = tmp_path / "year.pdc"
    kept = tmp_path / "year2011.pdc"
    for seed in (2011, 2012):
        cfg = tmp_path / f"seed{seed}.opts"
        write_config(cfg, demo_config(out, RandomEventSource__Seed=seed))
        assert main(["run", str(cfg)]) == EXIT_OK
        if seed == 2011:
            kept.write_bytes(out.read_bytes())

    from provrun import diff_dictionaries

    diff = diff_dictionaries(extract_info(kept), extract_info(out))
    exact = ([key for key, _, _ in diff.changed] == ["RandomEventSource.Seed"]
             and not diff.only_left and not diff.only_right)
    self_code = main(["diff", str(out), str(out)])
    report(5, exact and self_code == EXIT_OK,
           "diff isolates RandomEventSource.Seed 2011 -> 2012; "
           "self-diff is empty with exit 0")


def test_c6_event_loop_oracle(tmp_path):
    # independent straight-line reimplementation of generator + filter
    mask = (1 << 64) - 1
    state = 1
    survivors = 0
    for _ in range(100):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        draw = ((z ^ (z >> 31)) >> 11) * (1.0 / 9007199254740992.0)
        if draw >= 0.5:
            survivors += 1

    job = run_job(demo_config(tmp_path / "oracle.pdc",
                              RandomEventSource__Seed=1,
                              RandomEventSource__NumEvents=100,
                              ThresholdFilter__Field="f0",
                              ThresholdFilter__Min=0.5))
    report(6, job.report.events_written == survivors,
           f"events_written {job.report.events_written} matches the "
           f"straight-line oracle {survivors}")


def test_c7_container_robustness(tmp_path):
    # every single payload byte flip must be caught by the block crc
    blocks = [("events", b"0123456789abcdef"), ("summary", b"ABCDEFGH")]
    path = tmp_path / "small.pdc"
    write_container(path, blocks)
    original = path.read_bytes()
    payload_start = 20
    spans = []
    offset = payload_start
    for name, payload in blocks:
        spans.append((name, offset, offset + len(payload)))
        offset += len(payload)
    undetected = 0
    for pos in range(payload_start, offset):
        mutated = bytearray(original)
        mutated[pos] ^= 0x01
        path.write_bytes(bytes(mutated))
        victim = next(name for name, lo, hi in spans if lo <= pos < hi)
        try:
            read_block(path, victim)
            undetected += 1
        except ChecksumMismatch:
            pass
    path.write_bytes(original)

    with pytest.raises(BadMagic):
        bad = tmp_path / "bad.pdc"
        bad.write_bytes(b"not a container at all")
        read_block(bad, "events")
    with pytest.raises(UnknownBlock):
        read_block(path, "ghost")

    big_path = tmp_path / "big.pdc"
    payload = random.Random(0).randbytes(10 * 1024 * 1024)
    write_container(big_path, [("events", payload)],
                    info=MetadataDictionary(OptionsSet({"A.X": 1})))
    size = big_path.stat().st_size

    class CountingFile:
        def __init__(self, raw):
            self.raw = raw
            self.bytes_read = 0

        def read(self, n=-1):
            data = self.raw.read(n)
            self.bytes_read += len(data)
            return data

        def seek(self, *args):
            return self.raw.seek(*args)

    with open(big_path, "rb") as raw:
        counting = CountingFile(raw)
        info = extract_info(counting)
    frugal = counting.bytes_read < size * 0.01
    report(7, undetected == 0 and frugal and info["A.X"] == "1",
           f"all {offset - payload_start} payload byte flips detected; "
           f"BadMagic and UnknownBlock raised; extract_info read "
           f"{counting.bytes_read} of {size} bytes")


def test_c8_determinism(tmp_path):
    out = tmp_path / "det.pdc"
    config_path = tmp_path / "det.opts"
    write_config(config_path, demo_config(
        out, algorithms=("RandomEventSource", "ThresholdFilter", "Accumulator"),
        RandomEventSource__Seed=2024, RandomEventSource__NumEvents=60,
        RandomEventSource__FieldCount=3, ThresholdFilter__Min=0.2,
        Accumulator__Field="f2"))
    assert main(["run", str(config_path)]) == EXIT_OK
    first = hashlib.sha256(out.read_bytes()).hexdigest()
    assert main(["run", str(config_path)]) == EXIT_OK
    second = hashlib.sha256(out.read_bytes()).hexdigest()
    report(8, first == second,
           f"two runs of the same config hash to {first[:16]}... both times")
