"""Shared builders for the test suite: demo configs and randomized inputs."""

from __future__ import annotations

import errno
import os
import random
import string
import struct

from provrun import Kind, OptionKey, OptionsSet, OptionValue, workers
from provrun.crc import _T0, _append_zeros

_TEXT_POOL = (string.ascii_letters + string.digits + " _-./:#=[]\"\\\n\t"
              + "äßµ€Ω")


def demo_config(out_path, *, algorithms=("RandomEventSource", "ThresholdFilter"),
                metadata=True, **assignments) -> OptionsSet:
    """A runnable demo config; keyword assignments use __ for the dot."""
    config = OptionsSet()
    config.set("ApplicationMgr.TopAlg", list(algorithms))
    config.set("ApplicationMgr.Services", ["MetaDataSvc"] if metadata else [])
    config.set("ApplicationMgr.OutputFile", str(out_path))
    for key, value in assignments.items():
        config.set(key.replace("__", "."), value)
    return config


def forks(monkeypatch, cpus: int = 2) -> list:
    """The pids of the workers forked from here on, by a process that may
    use `cpus` CPUs."""
    monkeypatch.setattr(workers, "USABLE_CPUS", cpus)
    pids = []

    def fork(real=os.fork):
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def fold_widths(piece: int) -> list[int]:
    """The widths m of `crc`'s folds by their rule: from 64, each next width
    is the multiple of 8 in [3m/2, 2m - 32] whose x^m mod P has the fewest
    terms, the first on a tie, until 2m - 32 bits hold a piece of `piece`
    bytes and the 32 bits of its register."""
    widths = [64]
    while 2 * widths[-1] - 32 < 8 * piece + 32:
        m = widths[-1]
        first = -(-(3 * m // 2) // 8) * 8
        residue = _append_zeros(1 << 31, first // 8)  # x^first mod P, x^0 at bit 31
        terms = []
        for _ in range(first, 2 * m - 31, 8):
            terms.append(residue.bit_count())
            residue = _T0[residue & 0xFF] ^ (residue >> 8)  # times x^8
        widths.append(first + 8 * terms.index(min(terms)))
    return widths


def random_finite_double(rnd: random.Random) -> float:
    while True:
        (value,) = struct.unpack("<d", rnd.getrandbits(64).to_bytes(8, "little"))
        if value == value and value not in (float("inf"), float("-inf")):
            return value


def random_ident(rnd: random.Random, max_len: int = 8) -> str:
    first = rnd.choice(string.ascii_letters + "_")
    rest = "".join(rnd.choice(string.ascii_letters + string.digits + "_")
                   for _ in range(rnd.randrange(max_len)))
    return first + rest


def random_key(rnd: random.Random) -> OptionKey:
    segments = [random_ident(rnd) for _ in range(rnd.randint(2, 4))]
    return OptionKey(segments[0], ".".join(segments[1:]))


def random_scalar(rnd: random.Random, kind: Kind) -> OptionValue:
    if kind is Kind.INTEGER:
        return OptionValue.of(rnd.getrandbits(64) - (1 << 63))
    if kind is Kind.FLOAT:
        return OptionValue.of(random_finite_double(rnd))
    if kind is Kind.BOOLEAN:
        return OptionValue.of(rnd.random() < 0.5)
    length = rnd.randrange(12)
    return OptionValue.of("".join(rnd.choice(_TEXT_POOL) for _ in range(length)))


_SCALARS = (Kind.INTEGER, Kind.FLOAT, Kind.BOOLEAN, Kind.TEXT)


def random_value(rnd: random.Random) -> OptionValue:
    if rnd.random() < 0.25:
        elem = rnd.choice(_SCALARS)
        return OptionValue.of([random_scalar(rnd, elem)
                               for _ in range(rnd.randrange(6))])
    return random_scalar(rnd, rnd.choice(_SCALARS))


def random_options_set(rnd: random.Random, max_keys: int = 50) -> OptionsSet:
    out = OptionsSet()
    for _ in range(rnd.randrange(max_keys + 1)):
        out.set(random_key(rnd), random_value(rnd))
    return out


def random_demo_config(rnd: random.Random, out_path) -> OptionsSet:
    """A valid, runnable config over the demo catalogue (never fails a run)."""
    algorithms = ["RandomEventSource"]
    field_count = rnd.randint(1, 3)
    if rnd.random() < 0.7:
        algorithms.append("ThresholdFilter")
    if rnd.random() < 0.5:
        algorithms.append("Accumulator")
    config = demo_config(out_path, algorithms=algorithms)
    if rnd.random() < 0.8:
        config.set("RandomEventSource.Seed", rnd.randrange(1 << 32))
    if rnd.random() < 0.8:
        config.set("RandomEventSource.NumEvents", rnd.randrange(21))
    config.set("RandomEventSource.FieldCount", field_count)
    if "ThresholdFilter" in algorithms:
        if rnd.random() < 0.8:
            config.set("ThresholdFilter.Field", f"f{rnd.randrange(field_count)}")
        if rnd.random() < 0.8:
            config.set("ThresholdFilter.Min", rnd.uniform(-0.2, 1.2))
    if "Accumulator" in algorithms and rnd.random() < 0.8:
        config.set("Accumulator.Field", f"f{rnd.randrange(field_count)}")
    if rnd.random() < 0.3:
        config.set("DemoTool.Gain", rnd.uniform(0.1, 10.0))
    if rnd.random() < 0.4:
        config.set("ApplicationMgr.AppName", random_ident(rnd))
    if rnd.random() < 0.4:
        config.set("ApplicationMgr.AppVersion", f"v{rnd.randrange(50)}r{rnd.randrange(10)}")
    if rnd.random() < 0.3:
        config.set("MessageSvc.OutputLevel", rnd.randint(3, 5))
    return config


class FailingFile:
    """Writes through to a real file, then fails with ENOSPC after `limit` bytes."""

    def __init__(self, raw, limit):
        self.raw, self.left = raw, limit

    def write(self, data):
        if len(data) > self.left:
            self.raw.write(data[:self.left])
            self.left = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self.left -= len(data)
        return self.raw.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.raw.close()
