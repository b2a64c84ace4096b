"""Metadata dictionary: ordering, conversions, emission."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from provrun import (
    ContainerReader,
    MetadataDictionary,
    OptionsSet,
    diff_dictionaries,
    emit_canonical,
    extract_info,
    parse_options,
    read_block,
    write_container,
)

from helpers import random_options_set
from test_options import _MALFORMED_KEYS


def test_items_sorted_by_key_bytes():
    d = MetadataDictionary(OptionsSet({"B.Y": 1, "A.B.x": 2, "AB.x": 3}))
    assert d.keys() == ["A.B.x", "AB.x", "B.Y"]


def test_options_roundtrip_preserves_everything():
    rnd = random.Random(77)
    for _ in range(50):
        s = random_options_set(rnd, max_keys=15)
        d = MetadataDictionary(s)
        assert d.to_options() == s
        assert parse_options(d.emit()) == s


def test_emit_matches_canonical_emitter():
    s = OptionsSet([("B.Y", True), ("A.X", [1, 2]), ("A.F", 0.25)])
    d = MetadataDictionary(s)
    assert d.emit() == emit_canonical(s)


def test_without_drops_keys():
    d = MetadataDictionary(OptionsSet({"A.X": 1, "B.Y": 2}))
    assert d.without("B.Y") == MetadataDictionary(OptionsSet({"A.X": 1}))
    assert "B.Y" in d  # original untouched


def test_equality_is_content_based():
    a = MetadataDictionary(OptionsSet({"A.X": 1, "B.Y": 2}))
    b = MetadataDictionary(OptionsSet({"B.Y": 2, "A.X": 1}))
    assert a == b
    assert len(a) == 2
    assert a.get("C.Z") is None


def test_neither_the_source_set_nor_a_copy_can_change_the_dictionary():
    s = OptionsSet({"A.X": 1})
    d = MetadataDictionary(s)
    s.set("A.X", 2)
    d.to_options().set("B.Y", 3)
    assert d.items() == [("A.X", "1")]


def test_equality_and_diff_tell_apart_what_text_tells_apart():
    for left, right, texts in ((0.0, -0.0, ("0.0", "-0.0")), (1, 1.0, ("1", "1.0"))):
        a = MetadataDictionary(OptionsSet({"A.X": left}))
        b = MetadataDictionary(OptionsSet({"A.X": right}))
        assert a != b
        assert diff_dictionaries(a, b).changed == [("A.X", *texts)]
        assert a == MetadataDictionary(OptionsSet({"A.X": left}))
        assert diff_dictionaries(a, a).is_empty


@settings(max_examples=60)
@given(rnd=st.randoms(use_true_random=False))
def test_info_block_roundtrip(tmp_path_factory, rnd):
    s = random_options_set(rnd, max_keys=12)
    path = tmp_path_factory.getbasetemp() / "info-roundtrip.pdc"
    write_container(path, [("events", b"")], info=MetadataDictionary(s))
    assert extract_info(path) == MetadataDictionary(s)
    assert read_block(path, "info") == emit_canonical(s).encode()
    with ContainerReader(path) as reader:
        assert reader.block_names() == ["events", "info"]  # info is written last


@pytest.mark.parametrize("key", _MALFORMED_KEYS)
def test_a_malformed_key_is_absent_from_the_dictionary(key):
    d = MetadataDictionary(OptionsSet({"A.B": 1}))
    assert d.get(key) is None
    assert key not in d
    with pytest.raises(KeyError):
        d[key]
