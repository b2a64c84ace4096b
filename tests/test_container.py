"""Container format: round trips, corruption detection, reader locality."""

import array
import builtins
import contextlib
import io
import os
import random
import struct
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

import provrun.container
from provrun import (
    ContainerReader,
    MetadataDictionary,
    OptionsSet,
    PhaseStatus,
    parse_options,
    read_block,
    run_job,
    write_container,
)
from provrun.crc import _PIECE, crc32c
from provrun.errors import (
    BadMagic,
    ChecksumMismatch,
    ContainerError,
    CorruptContainer,
    DuplicateBlock,
    MissingInfo,
    ReservedNameMisuse,
    UnknownBlock,
    UnsupportedVersion,
    WriteFailure,
)
from provrun.container import _COMPARE_PIECE, differing_blocks, encode_table, extract_info
from provrun.events import PackedRows, decode_events, encode_events, row_format

from helpers import FailingFile, demo_config


def test_crc32c_known_vectors():
    assert crc32c(b"") == 0
    assert crc32c(b"123456789") == 0xE3069283
    assert crc32c(b"The quick brown fox jumps over the lazy dog") == 0x22620404


def test_empty_payload_block_roundtrips(tmp_path):
    path = tmp_path / "empty.pdc"
    write_container(path, [("events", b"")])
    assert read_block(path, "events") == b""
    with ContainerReader(path) as reader:
        assert reader.block_names() == ["events"]


def test_rewrite_is_byte_identical(tmp_path):
    blocks = [("events", b"abc"), ("summary", b"\x00\x01\x02")]
    p1, p2 = tmp_path / "a.pdc", tmp_path / "b.pdc"
    write_container(p1, blocks)
    write_container(p2, blocks)
    assert p1.read_bytes() == p2.read_bytes()


def test_random_blocks_roundtrip(tmp_path):
    rnd = random.Random(5)
    for trial in range(10):
        blocks = [(f"block_{i}", rnd.randbytes(rnd.randrange(4097)))
                  for i in range(3)]
        path = tmp_path / f"t{trial}.pdc"
        write_container(path, blocks)
        with ContainerReader(path) as reader:
            for name, payload in blocks:
                assert reader.read_block(name) == payload


def test_block_names_preserve_write_order(tmp_path):
    path = tmp_path / "ordered.pdc"
    write_container(path, [("zeta", b"1"), ("alpha", b"2"), ("mid", b"3")])
    with ContainerReader(path) as reader:
        assert reader.block_names() == ["zeta", "alpha", "mid"]


def test_a_name_longer_than_its_length_field_is_refused():
    with pytest.raises(ValueError, match="name too long"):
        encode_table([("n" * 0x10000, b"")])


def test_a_text_payload_is_refused(tmp_path):
    with pytest.raises(TypeError, match="must be bytes"):
        write_container(tmp_path / "text.pdc", [("events", "not bytes")])
    assert not (tmp_path / "text.pdc").exists()


def test_a_missing_file_is_a_container_error(tmp_path):
    with pytest.raises(CorruptContainer, match="cannot open"):
        ContainerReader(tmp_path / "missing.pdc")


def test_a_bytearray_or_memoryview_payload_writes_the_same_file_as_bytes(tmp_path):
    # past the fold threshold, so the fold path of the CRC reads the payload; the
    # memoryview of doubles is 8 bytes an item, and its block is its bytes
    big, wide = bytes(range(256)) * 200, array.array("d", [1.0, -2.5])
    files = []
    for kind in (bytes, bytearray, memoryview):
        path = tmp_path / f"{kind.__name__}.pdc"
        write_container(path, [("big", kind(big)), ("wide", memoryview(wide)),
                               ("empty", kind(b""))])
        files.append(path.read_bytes())
    assert files[0] == files[1] == files[2]
    assert read_block(tmp_path / "bytes.pdc", "wide") == wide.tobytes()


def test_duplicate_block_rejected(tmp_path):
    with pytest.raises(DuplicateBlock):
        write_container(tmp_path / "dup.pdc", [("x", b""), ("x", b"")])


def test_unknown_block(tmp_path):
    path = tmp_path / "one.pdc"
    write_container(path, [("events", b"data")])
    with pytest.raises(UnknownBlock):
        read_block(path, "ghost")


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.pdc"
    path.write_bytes(b"NOTAPDC1" + b"\x00" * 32)
    with pytest.raises(BadMagic):
        read_block(path, "events")
    short = tmp_path / "short.pdc"
    short.write_bytes(b"PDC")
    with pytest.raises(BadMagic):
        read_block(short, "events")


def test_unsupported_version(tmp_path):
    path = tmp_path / "v2.pdc"
    write_container(path, [("events", b"")])
    data = bytearray(path.read_bytes())
    data[8:12] = struct.pack("<I", 2)
    path.write_bytes(bytes(data))
    with pytest.raises(UnsupportedVersion):
        read_block(path, "events")


def test_every_payload_byte_flip_is_detected(tmp_path):
    blocks = [("events", b"0123456789abcdef"), ("summary", b"ABCDEFGH"),
              ("extra", b"xyz")]
    path = tmp_path / "flip.pdc"
    write_container(path, blocks)
    original = path.read_bytes()
    payload_start = 20
    payload_end = payload_start + sum(len(p) for _, p in blocks)
    spans = {}
    offset = payload_start
    for name, payload in blocks:
        spans[name] = (offset, offset + len(payload))
        offset += len(payload)
    for pos in range(payload_start, payload_end):
        mutated = bytearray(original)
        mutated[pos] ^= 0xFF
        path.write_bytes(bytes(mutated))
        victim = next(name for name, (lo, hi) in spans.items() if lo <= pos < hi)
        with ContainerReader(path) as reader:
            with pytest.raises(ChecksumMismatch):
                reader.read_block(victim)
    path.write_bytes(original)


def test_byte_flips_on_the_fold_path_are_detected(tmp_path):
    # Two whole pieces plus an odd tail, so the block CRC folds the pieces,
    # then takes a parity span for the tail.
    piece = _PIECE
    payload = random.Random(11).randbytes(2 * piece + 333)
    path = tmp_path / "pieces.pdc"
    write_container(path, [("events", payload)])
    payload_start = 20
    first, middle, last = 5, piece // 2 + 100, piece - 1
    second_piece, tail = piece + 7, len(payload) - 1
    with open(path, "r+b") as handle:
        for pos in (first, middle, last, second_piece, tail):
            handle.seek(payload_start + pos)
            handle.write(bytes([payload[pos] ^ 0x10]))
            handle.flush()
            with ContainerReader(path) as reader:
                with pytest.raises(ChecksumMismatch):
                    reader.read_block("events")
            handle.seek(payload_start + pos)
            handle.write(payload[pos:pos + 1])
            handle.flush()
    assert read_block(path, "events") == payload


def test_toc_corruption_detected(tmp_path):
    path = tmp_path / "toc.pdc"
    write_container(path, [("events", b"abc")])
    data = bytearray(path.read_bytes())
    data[-6] ^= 0x01  # inside the TOC region
    path.write_bytes(bytes(data))
    with pytest.raises((ChecksumMismatch, CorruptContainer)):
        read_block(path, "events")


def test_truncated_file(tmp_path):
    path = tmp_path / "trunc.pdc"
    write_container(path, [("events", b"abcdef")])
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - 3])
    with pytest.raises((ChecksumMismatch, CorruptContainer)):
        read_block(path, "events")


def test_info_must_be_canonical(tmp_path):
    with pytest.raises(ReservedNameMisuse):
        write_container(tmp_path / "x.pdc", [("info", b"not an options doc !!")])
    # non-canonical but parseable (unsorted keys) is also rejected
    with pytest.raises(ReservedNameMisuse):
        write_container(tmp_path / "y.pdc", [("info", b"B.Y = 1\nA.X = 2\n")])
    # so is a raw block in canonical form: only the writer emits `info`
    with pytest.raises(ReservedNameMisuse):
        write_container(tmp_path / "w.pdc", [("info", b"A.X = 2\nB.Y = 1\n")])
    # metadata passed as info= is accepted and emitted in canonical form
    info = MetadataDictionary(parse_options("B.Y = 1\nA.X = 2\n"))
    write_container(tmp_path / "z.pdc", [], info=info)
    assert read_block(tmp_path / "z.pdc", "info") == b"A.X = 2\nB.Y = 1\n"


def test_extract_info_roundtrip(tmp_path):
    path = tmp_path / "meta.pdc"
    write_container(path, [("events", b"")],
                    info=MetadataDictionary(parse_options('A.X = 1\nB.Y = "s"\n')))
    info = extract_info(path)
    assert info["A.X"] == "1"
    assert info["B.Y"] == '"s"'
    # re-embed into a copy, extract again
    path2 = tmp_path / "meta2.pdc"
    write_container(path2, [("events", b"")], info=info)
    assert extract_info(path2) == info


def test_extract_info_missing(tmp_path):
    path = tmp_path / "plain.pdc"
    write_container(path, [("events", b"")])
    with pytest.raises(MissingInfo):
        extract_info(path)


@pytest.mark.parametrize("limit", [0, 10, 20, 3000, 4055])
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, limit):
    path = tmp_path / "out.pdc"
    write_container(path, [("events", b"old")])
    before = path.read_bytes()
    # 20 B header, 4000 B payload, TOC (4 + 2 + 6 + 20 B), 4 B trailer: 4056 B
    blocks = [("events", random.Random(2).randbytes(4000))]

    def failing_open(file, mode="r", *args, **kwargs):
        return FailingFile(builtins.open(file, mode, *args, **kwargs), limit)

    monkeypatch.setattr(provrun.container, "open", failing_open, raising=False)
    with pytest.raises(WriteFailure):
        write_container(path, blocks)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.pdc"]
    monkeypatch.delattr(provrun.container, "open")
    write_container(path, blocks)
    assert read_block(path, "events") == blocks[0][1]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.pdc"]


def test_failed_rename_leaves_no_temporary(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(WriteFailure):
        write_container(target, [("events", b"data")])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert list(target.iterdir()) == []


def test_a_target_of_the_longest_file_name_is_written(tmp_path):
    out = tmp_path / ("a" * 251 + ".pdc")  # 255 bytes
    job = run_job(demo_config(out, algorithms=("RandomEventSource",),
                              RandomEventSource__NumEvents=10))
    assert job.report.succeeded, job.report.error
    assert len(read_block(out, "events")) > 10 * 8
    assert [p.name for p in tmp_path.iterdir()] == [out.name]


def test_two_writers_of_one_long_path_get_distinct_temporaries(tmp_path):
    path = tmp_path / ("b" * 251 + ".pdc")
    first, second = provrun.container.AtomicFile(path), provrun.container.AtomicFile(path)
    first.write(b"first")
    second.write(b"second")
    temporaries = [p.name for p in tmp_path.iterdir()]
    assert len(set(temporaries)) == 2
    for name in temporaries:
        assert len(name.encode()) <= 255
        assert name.startswith("b" * 200) and name.endswith(".tmp")
        assert f".{os.getpid()}." in name
    second.commit()
    first.abandon()
    assert path.read_bytes() == b"second"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


class _BrokenSource(Exception):
    pass


def _chunks_that_fail():
    yield b"written first"
    raise _BrokenSource("the chunk source broke")


@pytest.mark.parametrize("chunks, error", [
    (lambda: [b"ok", "text, not bytes"], TypeError),
    (_chunks_that_fail, _BrokenSource),
], ids=["text_chunk", "raising_iterable"])
def test_a_failure_that_is_not_an_os_error_leaves_no_temporary(tmp_path, chunks, error):
    path = tmp_path / "out.pdc"
    write_container(path, [("events", b"old")])
    before = path.read_bytes()
    with pytest.raises(error) as raised:
        provrun.container.write_atomically(path, chunks())
    assert not isinstance(raised.value, WriteFailure)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.pdc"]


def test_differing_blocks_compares_long_blocks_to_their_last_piece(tmp_path):
    # a message followed by its own crc32c, little-endian, always has the
    # same crc32c: two such blocks that part in their last bytes agree in
    # length and crc32c, so only their bytes tell them apart
    body = random.Random(4).randbytes(2 * _COMPARE_PIECE + 100)
    paths = []
    for last in (0, 1):
        message = body + bytes([last])
        paths.append(tmp_path / f"{last}.pdc")
        write_container(paths[-1], [("events", message + struct.pack("<I", crc32c(message))),
                                    ("summary", b"same")])
    a, b = (read_block(path, "events") for path in paths)
    assert len(a) == len(b) and crc32c(a) == crc32c(b) and a[-1] != b[-1]
    assert a[:-5] == b[:-5]
    assert differing_blocks(*paths) == ["events"]
    assert differing_blocks(paths[0], paths[0]) == []


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

    def tell(self):
        return self.raw.tell()


def test_extract_info_reads_only_toc_and_info(tmp_path):
    path = tmp_path / "big.pdc"
    big = bytes(1024) * 1024  # 1 MiB payload
    write_container(path, [("events", big)],
                    info=MetadataDictionary(OptionsSet({"A.X": 1})))
    size = path.stat().st_size
    with open(path, "rb") as raw:
        counting = CountingFile(raw)
        info = extract_info(counting)
    assert info["A.X"] == "1"
    assert counting.bytes_read < size * 0.01


_TOTALITY_BLOCKS = [("events", random.Random(4).randbytes(70 * 512 + 13)),
                    ("summary", b"ABCDEFGH")]
_TOTALITY_INFO = MetadataDictionary(parse_options('A.X = 1\nB.Y = "s"\n'))


@pytest.fixture(scope="module")
def totality_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("totality") / "base.pdc"
    write_container(path, _TOTALITY_BLOCKS, info=_TOTALITY_INFO)
    return path.read_bytes()


_TOTALITY_PAYLOADS = [*_TOTALITY_BLOCKS, ("info", _TOTALITY_INFO.emit().encode())]
_SIZE = 20 + sum(len(p) for _, p in _TOTALITY_PAYLOADS) + 4 + sum(
    2 + len(name) + 20 for name, _ in _TOTALITY_PAYLOADS) + 4
# Header and TOC are small, so weight the positions towards both ends.
_positions = st.one_of(st.integers(0, 40), st.integers(_SIZE - 120, _SIZE - 1),
                       st.integers(0, _SIZE - 1))
_edits = st.lists(st.one_of(
    st.tuples(st.just("truncate"), _positions),
    st.tuples(st.just("mutate"), _positions, st.integers(1, 255)),
    st.tuples(st.just("insert"), _positions, st.integers(0, 255)),
), min_size=1, max_size=3)


@settings(max_examples=200)
@given(edits=_edits)
def test_reader_raises_only_container_errors(totality_bytes, edits):
    data = bytearray(totality_bytes)
    assert len(data) == _SIZE
    for edit in edits:
        pos = min(edit[1], len(data))
        if edit[0] == "truncate":
            del data[pos:]
        elif edit[0] == "mutate" and pos < len(data):
            data[pos] ^= edit[2]
        elif edit[0] == "insert":
            data[pos:pos] = bytes([edit[2]])
    with contextlib.suppress(ContainerError):
        with ContainerReader(io.BytesIO(bytes(data))) as reader:
            for name in reader.block_names():
                with contextlib.suppress(ContainerError):
                    reader.read_block(name)
    with contextlib.suppress(ContainerError):
        extract_info(io.BytesIO(bytes(data)))


_TOC_FIELDS = {"name_len": "<H", "offset": "<Q", "length": "<Q", "crc": "<I"}


def _toc_field_position(data, entry: int, field: str) -> tuple[int, int]:
    """Offset of the TOC header and of one field of one TOC entry."""
    (toc_offset,) = struct.unpack_from("<Q", data, 12)
    pos = toc_offset + 4
    for _ in range(entry):
        pos += 2 + struct.unpack_from("<H", data, pos)[0] + 20
    name_len = struct.unpack_from("<H", data, pos)[0]
    tail = {"name_len": 0, "offset": 2 + name_len, "length": 10 + name_len,
            "crc": 18 + name_len}
    return toc_offset, pos + tail[field]


@settings(max_examples=300)
@given(entry=st.integers(0, len(_TOTALITY_PAYLOADS) - 1),
       field=st.sampled_from(sorted(_TOC_FIELDS)),
       change=st.one_of(st.tuples(st.just("add"), st.integers(-600, 600)),
                        st.tuples(st.just("set"), st.integers(0, 2**64 - 1))))
def test_reader_raises_only_container_errors_on_a_resealed_toc(
        totality_bytes, entry, field, change):
    """A rewritten TOC entry under a recomputed trailer CRC passes the TOC
    checksum, so only the reader's own bounds and block checks stand."""
    data = bytearray(totality_bytes)
    toc_offset, pos = _toc_field_position(data, entry, field)
    fmt = _TOC_FIELDS[field]
    (old,) = struct.unpack_from(fmt, data, pos)
    new = old + change[1] if change[0] == "add" else change[1]
    struct.pack_into(fmt, data, pos, new % (1 << 8 * struct.calcsize(fmt)))
    struct.pack_into("<I", data, len(data) - 4, crc32c(bytes(data[toc_offset:-4])))
    with contextlib.suppress(ContainerError):
        with ContainerReader(io.BytesIO(bytes(data))) as reader:
            for name in reader.block_names():
                with contextlib.suppress(ContainerError):
                    reader.read_block(name)
    with contextlib.suppress(ContainerError):
        extract_info(io.BytesIO(bytes(data)))


# --- events payload codec ----------------------------------------------------

def test_events_codec_roundtrip():
    rnd = random.Random(3)
    for _ in range(20):
        names = [f"f{i}" for i in range(rnd.randrange(4))]
        rows = [tuple(rnd.random() for _ in names) for _ in range(rnd.randrange(6))]
        if not names:
            rows = []
        encoded = encode_events(names, rows)
        for form in (encoded, memoryview(encoded)):
            assert decode_events(form) == (names, rows)


# integers as well as floats: a decoded cell is a float whatever was encoded
_CELL = st.one_of(st.floats(allow_nan=False), st.integers(-2**53, 2**53))


@settings(max_examples=100)
@given(data=st.data(), width=st.integers(0, 4))
def test_decoded_rows_are_tuples_of_floats_equal_to_the_encoded_rows(data, width):
    rows = data.draw(st.lists(st.tuples(*[_CELL] * width), max_size=8 if width else 0))
    names = [f"f{i}" for i in range(width)]
    decoded_names, decoded = decode_events(encode_events(names, rows))
    assert (decoded_names, decoded) == (names, rows)
    assert all(type(row) is tuple and all(type(cell) is float for cell in row)
               for row in decoded)


_FIELD_NAMES = st.lists(st.text(st.characters(codec="utf-8"), max_size=6), max_size=4,
                        unique=True)
# -0.0, a signalling NaN, and a negative quiet NaN with a payload
_ODD_DOUBLES = [bytes.fromhex(h) for h in ("0000000000000080", "010000000000f07f",
                                           "230100000000f8ff")]
_CELLS = st.lists(st.one_of(st.binary(min_size=8, max_size=8),
                            st.sampled_from(_ODD_DOUBLES)), max_size=24)


@settings(max_examples=200)
@given(names=_FIELD_NAMES, cells=_CELLS)
@example(names=["f0", "\u00df"], cells=_ODD_DOUBLES + _ODD_DOUBLES[:1])
@example(names=[], cells=[])
def test_events_codec_is_a_byte_fixpoint(names, cells):
    # raw cell bytes, so -0.0 and NaN payloads are compared as stored
    whole_rows = len(cells) - len(cells) % len(names) if names else 0
    encoded = encode_events(names, []) + b"".join(cells[:whole_rows])
    for form in (encoded, memoryview(encoded)):
        assert encode_events(*decode_events(form)) == encoded


def test_events_codec_refuses_a_field_named_twice():
    with pytest.raises(ValueError):
        encode_events(["a", "a"], [[1.0, 2.0]])
    twice = struct.pack("<I", 2) + (struct.pack("<H", 1) + b"a") * 2
    with pytest.raises(CorruptContainer):
        decode_events(twice + struct.pack("<2d", 1.0, 2.0))


class _Interrupted:
    """A row whose iteration raises as a signal handler's exception would,
    from its `after`-th iteration on."""

    def __init__(self, after=0):
        self.after = after

    def __iter__(self):
        if self.after:
            self.after -= 1
            return iter((1.0, 2.0))
        raise TimeoutError("the alarm rang")


@pytest.mark.parametrize("rows", [
    [(1.0, 2.0), _Interrupted(), (3.0, 4.0)],
    # the bulk pack stops at the short row, and the row-by-row search is interrupted
    [_Interrupted(after=1), (1.0,)],
], ids=["bulk", "search"])
def test_an_exception_raised_while_rows_are_packed_goes_through(rows):
    packed = PackedRows()
    with pytest.raises(TimeoutError, match="the alarm rang"):
        packed.extend(row_format(2), rows)
    packed.check(2)  # the interruption is no misfit


def test_events_codec_rejects_garbage():
    with pytest.raises(CorruptContainer):
        decode_events(b"")
    with pytest.raises(CorruptContainer):
        decode_events(struct.pack("<I", 1) + struct.pack("<H", 2) + b"f0" + b"xyz")
    with pytest.raises(CorruptContainer):
        decode_events(struct.pack("<I", 0) + b"extra")


_VALID_EVENTS = encode_events(["f0", "ß"], [[1.0, -0.0], [2.5, 3.5]])
_event_edits = st.lists(st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, len(_VALID_EVENTS))),
    st.tuples(st.just("mutate"), st.integers(0, len(_VALID_EVENTS)), st.integers(1, 255)),
    st.tuples(st.just("insert"), st.integers(0, len(_VALID_EVENTS)), st.integers(0, 255)),
), min_size=1, max_size=3)


def _edited_events(edits) -> bytes:
    data = bytearray(_VALID_EVENTS)
    for edit in edits:
        pos = min(edit[1], len(data))
        if edit[0] == "truncate":
            del data[pos:]
        elif edit[0] == "mutate" and pos < len(data):
            data[pos] ^= edit[2]
        elif edit[0] == "insert":
            data[pos:pos] = bytes([edit[2]])
    return bytes(data)


@settings(max_examples=300)
@given(data=st.one_of(st.binary(max_size=64), _event_edits.map(_edited_events)))
def test_decode_events_raises_only_corrupt_container(data):
    with contextlib.suppress(CorruptContainer):
        names, rows = decode_events(data)
        assert all(len(row) == len(names) for row in rows)


@settings(max_examples=150)
@given(data=st.one_of(st.binary(max_size=64), _event_edits.map(_edited_events)))
@example(data=_VALID_EVENTS)
def test_the_file_source_reads_what_decode_events_decodes(data):
    # the source unpacks its rows lazily; a job that copies an `events`
    # block writes it back byte for byte, or fails initialize with the
    # CorruptContainer that decode_events raises, and runs no event
    with tempfile.TemporaryDirectory() as work:
        source, out = os.path.join(work, "source.pdc"), os.path.join(work, "out.pdc")
        write_container(source, [("events", data)])
        job = run_job(demo_config(out, algorithms=("FileEventSource",),
                                  FileEventSource__Input=source))
        try:
            _, rows = decode_events(data)
        except CorruptContainer as exc:
            assert job.report.phases["initialize"] is PhaseStatus.FAILED
            assert job.report.error == f"initialize: cannot read input {source!r}: {exc}"
            assert job.report.events_seen == 0
            assert not os.path.exists(out)
        else:
            assert job.report.succeeded, job.report.error
            assert job.report.events_seen == job.report.events_written == len(rows)
            assert read_block(out, "events") == data


class _RawInfo:
    """Stands in for a metadata dictionary whose document is `text`."""

    def __init__(self, text):
        self.text = text

    def emit(self):
        return self.text


def test_extract_info_refuses_an_info_block_that_is_not_an_options_document(tmp_path):
    path = tmp_path / "bad.pdc"
    write_container(path, [("events", b"")], info=_RawInfo("not an options document\n"))
    with pytest.raises(CorruptContainer):
        extract_info(path)
