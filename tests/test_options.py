"""Options language: grammar, set semantics, canonical emission."""

import random
import string
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from provrun import (
    Kind,
    OptionKey,
    OptionsSet,
    OptionValue,
    emit_canonical,
    parse_options,
    parse_value,
    value_to_text,
)
from provrun.errors import InvalidOptionValue, OptionsSyntaxError
from provrun.options import INT64_MAX, INT64_MIN

from helpers import random_finite_double, random_options_set


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


# --- parsing ---------------------------------------------------------------

def test_parse_single_assignment():
    parsed = parse_options("ApplicationMgr.OutputLevel = 3")
    assert parsed["ApplicationMgr.OutputLevel"] == OptionValue.of(3)
    assert len(parsed) == 1


def test_parse_last_write_wins():
    parsed = parse_options("A.X = 1\nA.X = 2")
    assert parsed["A.X"] == OptionValue.of(2)
    assert len(parsed) == 1


def test_parse_float_list():
    parsed = parse_options("Filter.Thresholds = [0.5, 1.5]")
    value = parsed["Filter.Thresholds"]
    assert value.kind is Kind.LIST
    assert value.elem_kind is Kind.FLOAT
    assert value.python() == [0.5, 1.5]


def test_parse_comments_and_blank_lines():
    text = "# leading comment\n\n   \nA.B = true\n  # indented comment\n"
    parsed = parse_options(text)
    assert parsed["A.B"] == OptionValue.of(True)


def test_parse_empty_list_and_strings():
    parsed = parse_options('A.L = []\nA.S = "he said \\"hi\\""\nA.T = ""')
    assert parsed["A.L"].python() == []
    assert parsed["A.S"].python() == 'he said "hi"'
    assert parsed["A.T"].python() == ""


def test_parse_unicode_escapes():
    parsed = parse_options('A.S = "tab\\tnl\\ncr\\r\\u0041\\u00e4"')
    assert parsed["A.S"].python() == "tab\tnl\ncr\rAä"


def test_parse_surrogate_pair_escape():
    parsed = parse_options('A.S = "\\ud83d\\ude00"')
    assert parsed["A.S"].python() == "\U0001f600"


def test_parse_negative_numbers_and_exponents():
    parsed = parse_options("A.I = -42\nA.F = -1.5e-3\nA.G = 2e16\nA.H = 1e-05")
    assert parsed["A.I"].python() == -42
    assert parsed["A.F"].python() == -1.5e-3
    assert parsed["A.G"].kind is Kind.FLOAT
    assert parsed["A.H"].python() == 1e-05


_PARSE_ERRORS = [  # (document, message fragment, column)
    ("A = 1", "malformed key", 1),
    ("A.B 1", "expected '='", 5),
    ("A.B = -", "expected digits", 7),
    ("A.B == 1", "expected a value", 6),
    ("A.B = 01", "leading zeros", 7),
    ("A.B = 1e999", "finite", 7),
    ("A.B = [1, 2.5]", "heterogeneous", 11),
    ("A.B = [[1]]", "nested", 8),
    ('A.B = "open', "unterminated", 7),
    ("A.B = tru", "unparseable", 7),
    ("A.B = 1 trailing", "unexpected text", 9),
    ("A.B = 1\r", "carriage return", 8),
    ("9A.B = 1", "malformed key", 1),
    ("A.B = .5", "expected a value", 7),
    ("A.B = 5.", "digits after", 9),
    ('A.B = "\\q"', "unknown escape", 8),
    ('A.B = "\\ud800"', "lone surrogate", 8),
    ("A.B = 99999999999999999999", "64-bit", 7),
    ("A.B = ٣", "expected a value", 7),     # non-ASCII digit
    ("A.B = 1٣1", "unexpected text", 8),    # non-ASCII digit inside a number
    ('A.B = "x\ud800"', "raw surrogate", 9),  # a raw one, not a \u escape
    ("A..B = 1", "malformed key", 3),
    (" \t\rA.B = 1", "carriage return", 3),
    ('A.B = "\\', "dangling escape", 9),
    ('A.B = "\\u00"', "four hex digits", 10),
    ('A.B = "\\ud800\\u00"', "four hex digits", 16),
    ('A.B = "\\ud800\\u0041"', "lone surrogate", 14),
    ('A.B = "\\udc00\\u0041"', "lone surrogate", 8),
    ('A.B = "\x01"', "control character U+0001", 8),
    ("A.B = [1 ,2]", "expected ',' or ']'", 9),
    ("A.B = [ ]", "expected a value", 8),
    ("A.B = 1e+", "digits in exponent", 10),
    ("= 1", "malformed key", 1),
    ("A.B.", "malformed key", 5),
    ("Aé.B = 1", "malformed key", 1),
    ("A.B² = 1", "malformed key", 3),
    ("A.B \r= 1", "expected '='", 5),
    ("A.B.C", "expected '='", 6),
]


@pytest.mark.parametrize("bad, fragment, column", [
    pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in _PARSE_ERRORS])
def test_parse_errors(bad, fragment, column):
    with pytest.raises(OptionsSyntaxError) as err:
        parse_options(bad)
    assert fragment in str(err.value)
    assert (err.value.line, err.value.column) == (1, column)


@pytest.mark.parametrize("bad, fragment, column", [
    ('"a\nb"', "raw line break", 3),
    ("1 ", "unexpected text", 2),
    ("true.x", "unexpected text", 5),
    ("", "expected a value", 1),
])
def test_parse_value_errors(bad, fragment, column):
    with pytest.raises(OptionsSyntaxError) as err:
        parse_value(bad)
    assert fragment in str(err.value)
    assert (err.value.line, err.value.column) == (1, column)


@pytest.mark.parametrize("text", ["A.B=1", "A.B\t=\t1", " \tA.B \t= \t1 \t"])
def test_blanks_around_the_equals_sign_are_optional(text):
    assert parse_options(text) == OptionsSet([("A.B", 1)])


def test_parse_error_carries_position():
    with pytest.raises(OptionsSyntaxError) as err:
        parse_options("A.B = 1\nC.D = ?\n")
    assert err.value.line == 2
    assert err.value.column == 7


# --- parser laws over generated documents -----------------------------------

# Grammar characters, escapes, line breaks, controls, non-ASCII letters and
# digits and a raw surrogate, so that most documents fail somewhere.
_noise = st.lists(st.sampled_from(
    list('.=[],"\\#-+eE \t\r\n0123456789Aa_') + [
        "\\u", "\\ud83d", "\\ude00", "\\ud800", "\\u00e4", "\\n", "\x00", "\x1f",
        "\x7f", "é", "ß", "٣", "²", "\ud800", "true", "A.B"]), max_size=10).map("".join)
_scalar = st.one_of(
    st.integers(INT64_MIN, INT64_MAX), st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(), st.text(max_size=6)).map(lambda v: value_to_text(OptionValue.of(v)))
_string = st.lists(st.sampled_from(
    ["a", "é", "٣", " ", "\t", "\\n", "\\u00e4", "\\ud83d\\ude00", "\\ud800", "\\udc00", "\\q",
     "\ud800", "\udbff", "\udc00", "\udfff", "\x01", '"']),
    max_size=4).map(lambda parts: '"' + "".join(parts) + '"')
_value = st.one_of(_scalar, _noise, _string,
                   st.lists(_scalar, max_size=3).map(lambda items: "[" + ", ".join(items) + "]"))
_key = st.sampled_from(["A.B", "Comp_1.Sub.prop", "x.y", "A", "9A.B", "A..B", "é.B"])
_blank = st.sampled_from(["", " ", "\t ", "  "])
_line = st.one_of(
    st.tuples(_key, _blank, _blank, _value, _blank).map(
        lambda p: f"{p[0]}{p[1]}={p[2]}{p[3]}{p[4]}"),
    _noise, st.sampled_from(["", "   ", "# comment"]))
_documents = st.lists(_line, max_size=5).map("\n".join)
_prefix = st.lists(st.sampled_from(["", " \t", "# c = [", "A.B = 1", 'C.D = "x"', "E.F = []"]),
                   min_size=1, max_size=3)


def _error_of(text):
    try:
        parse_options(text)
    except OptionsSyntaxError as err:
        return err
    return None


@settings(max_examples=300)
@given(text=_documents)
@example(text='A.B = "\ud800"')  # a raw surrogate once escaped as InvalidOptionValue
@example(text="A.B = " + "9" * 5000)  # and a literal past int()'s digit limit as ValueError
def test_parse_options_is_total(text):
    err = _error_of(text)
    if err is not None:
        lines = text.split("\n")
        assert 1 <= err.line <= len(lines)
        assert 1 <= err.column <= len(lines[err.line - 1]) + 1


@settings(max_examples=200)
@given(text=_documents, prefix=_prefix)
def test_error_position_moves_only_by_the_prefixed_lines(text, prefix):
    err = _error_of(text)
    if err is not None:
        moved = _error_of("".join(line + "\n" for line in prefix) + text)
        assert (moved.line, moved.column, moved.args) == (
            err.line + len(prefix), err.column, err.args)


@settings(max_examples=200)
@given(text=_documents)
def test_emit_after_parse_is_a_byte_fixpoint(text):
    try:
        parsed = parse_options(text)
    except OptionsSyntaxError:
        return
    emitted = emit_canonical(parsed)
    assert parse_options(emitted) == parsed
    assert emit_canonical(parse_options(emitted)) == emitted


def test_final_line_without_newline_is_accepted():
    assert parse_options("A.B = 7")["A.B"] == OptionValue.of(7)


def test_equality_ignores_insertion_order():
    s1 = OptionsSet([("A.X", 1), ("B.Y", 2)])
    s2 = OptionsSet([("B.Y", 2), ("A.X", 1)])
    assert s1 == s2
    assert emit_canonical(s1) == emit_canonical(s2)


# --- canonical emission -----------------------------------------------------

def test_emit_sorts_keys():
    s = OptionsSet([("B.Y", True), ("A.X", 1)])
    assert emit_canonical(s) == "A.X = 1\nB.Y = true\n"


def test_emit_empty_set():
    assert emit_canonical(OptionsSet()) == ""


def test_emit_sorts_by_key_bytes_not_segments():
    # '.' sorts below identifier characters, so A.B.x comes before AB.x
    s = OptionsSet([("AB.x", 1), ("A.B.x", 2)])
    assert emit_canonical(s) == "A.B.x = 2\nAB.x = 1\n"


def shortest_roundtrip_digits(x: float) -> int:
    """Independent formatter oracle: fewest significant digits that survive."""
    for n in range(1, 18):
        if bits(float("%.{}g".format(n) % x)) == bits(x):
            return n
    raise AssertionError("17 digits must always round-trip")


def significant_digits(text: str) -> int:
    mantissa = text.lstrip("-").split("e")[0].split("E")[0].replace(".", "")
    core = mantissa.strip("0")
    return len(core) if core else 1


def test_float_emission_is_shortest_roundtrip():
    assert value_to_text(OptionValue.of(0.5)) == "0.5"
    assert emit_canonical(OptionsSet([("A.F", 0.5)])) == "A.F = 0.5\n"
    rnd = random.Random(11)
    samples = [0.5, 0.1, 2.0, 1000.0, 1e16, 1e-5, -0.0, 5e-324, 1.5e300]
    samples += [random_finite_double(rnd) for _ in range(200)]
    for x in samples:
        text = value_to_text(OptionValue.of(x))
        assert bits(parse_value(text).value) == bits(x)
        assert significant_digits(text) == shortest_roundtrip_digits(x)


def test_scalar_codec_examples():
    assert value_to_text(OptionValue.of(False)) == "false"
    assert value_to_text(OptionValue.of('he said "hi"')) == '"he said \\"hi\\""'
    assert parse_value('"he said \\"hi\\""').python() == 'he said "hi"'


def test_float_roundtrip_is_bit_exact():
    rnd = random.Random(2024)
    for _ in range(1000):
        x = random_finite_double(rnd)
        text = value_to_text(OptionValue.of(x))
        assert bits(parse_value(text).value) == bits(x)


def test_control_characters_escape_and_return():
    value = OptionValue.of("a\x00b\x1fc")
    text = value_to_text(value)
    assert text == '"a\\u0000b\\u001fc"'
    assert parse_value(text) == value


def test_of_is_the_one_way_to_make_a_value():
    with pytest.raises(TypeError):
        OptionValue(Kind.INTEGER, 3)


class _Loud(float):
    def __repr__(self):
        return "Loud(" + float.__repr__(self) + ")"


class _Shout(int):
    def __str__(self):
        return "SHOUT"


class _Whisper(str):
    pass


@pytest.mark.parametrize("plain", [_Loud(0.5), _Shout(-3), _Whisper("a\tb")],
                         ids=["float", "integer", "text"])
def test_a_subclass_value_is_stored_as_its_builtin_and_emits_canonically(plain):
    # numpy's float64 is a float whose repr, "np.float64(0.5)", does not parse
    value = OptionValue.of(plain)
    assert type(value.value) is type(plain).__mro__[1]
    assert value.value == plain
    assert parse_value(value_to_text(value)) == value


def test_values_are_immutable():
    value = OptionValue.of(3)
    with pytest.raises(AttributeError):
        value.kind = Kind.FLOAT
    assert value.kind is Kind.INTEGER


def test_equal_values_hash_equal_and_signed_zeros_stay_apart():
    assert len({OptionValue.of(0.0), OptionValue.of(-0.0)}) == 2
    for plain in (0.0, -0.0, 3, True, "x", [1.5, -0.0], []):
        made = OptionValue.of(plain)
        parsed = parse_value(value_to_text(made))
        assert made == parsed and hash(made) == hash(parsed)


def test_negative_zero_is_distinct_and_roundtrips():
    pos = OptionValue.of(0.0)
    neg = OptionValue.of(-0.0)
    assert pos != neg
    assert value_to_text(neg) == "-0.0"
    assert bits(parse_value("-0.0").value) == bits(-0.0)


# --- whole-set properties ----------------------------------------------------

def test_roundtrip_and_fixpoint_randomized():
    rnd = random.Random(99)
    for _ in range(150):
        s = random_options_set(rnd, max_keys=20)
        emitted = emit_canonical(s)
        reparsed = parse_options(emitted)
        assert reparsed == s
        assert emit_canonical(reparsed) == emitted


def test_value_constructor_rejects_bad_values():
    with pytest.raises(InvalidOptionValue):
        OptionValue.of(float("nan"))
    with pytest.raises(InvalidOptionValue):
        OptionValue.of(float("inf"))
    with pytest.raises(InvalidOptionValue):
        OptionValue.of(1 << 63)
    with pytest.raises(InvalidOptionValue):
        OptionValue.of([1, "two"])
    with pytest.raises(InvalidOptionValue):
        OptionValue.of([[1]])
    with pytest.raises(InvalidOptionValue, match="text is not valid Unicode"):
        OptionValue.of("\ud800")
    with pytest.raises(InvalidOptionValue):
        OptionKey("A", "")
    with pytest.raises(InvalidOptionValue):
        OptionKey("A", "9bad")


_IDENT_START = set(string.ascii_letters + "_")


def _is_identifier(segment: str) -> bool:
    """An ASCII identifier, checked character by character."""
    return (segment[:1] in _IDENT_START
            and all(ch in _IDENT_START or ch in string.digits for ch in segment))


_key_text = st.lists(st.sampled_from(
    ["A", "b", "_", "Z9", "0", "9", ".", "é", "٣", "²", "ß", " ", "-", "\n"]),
    max_size=5).map("".join)


@settings(max_examples=400)
@given(component=_key_text, prop=_key_text)
@example(component="A", prop="B.")          # a trailing dot
@example(component="A", prop="B..C")        # an empty segment
@example(component="A", prop="")            # one segment only
@example(component="A.B", prop="C")         # a dot in the component
@example(component="A", prop="B\n")         # a line break after the last segment
@example(component="Aé", prop="B")
@example(component="A", prop="٣")
@example(component="A", prop="B²")
def test_key_accepts_exactly_dotted_ascii_identifiers(component, prop):
    segments = [component, *prop.split(".")]
    try:
        key = OptionKey(component, prop)
    except InvalidOptionValue as err:
        bad = [segment for segment in segments if not _is_identifier(segment)]
        assert bad
        assert str(err) == (f"key {component!r} needs at least two segments" if not prop
                            else f"bad key segment {bad[0]!r} in {component}.{prop}")
    else:
        assert all(map(_is_identifier, segments))
        assert (key.component, key.prop, key.text) == (component, prop, f"{component}.{prop}")


def test_lists_are_homogeneous_but_integer_and_float_distinct():
    ints = OptionValue.of([1, 2])
    floats = OptionValue.of([1.0, 2.0])
    assert ints.elem_kind is Kind.INTEGER
    assert floats.elem_kind is Kind.FLOAT
    assert ints != floats
