r"""The job-options configuration language.

Documents are line-oriented: every line is blank, a ``#`` comment, or an
assignment ``Component.Property = value``. Values are 64-bit signed
integers, finite 64-bit floats, booleans, double-quoted strings, or flat
homogeneous lists of those scalars. Canonical emission is byte-exact:
keys sorted by the UTF-8 bytes of the full dotted key, LF line endings,
a single space around ``=``, floats rendered as the shortest decimal
string that parses back to the same bits. Parsing the canonical emission
of any set reproduces the set; re-emitting is a byte fixpoint.

Tokens, one compiled pattern each (``[0-9]`` is ASCII only):

- blank: ``[ \t]*``, around ``=`` and after a list's ``,``
- key: ``\w*(?:\.\w*)*`` with two or more ``[A-Za-z_][A-Za-z0-9_]*`` segments
- word: ``\w*`` that starts with a letter; only ``true`` and ``false`` are values
- number: ``-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?`` without leading zeros
- string: ``"`` then any character but ``"``, ``\``, a control (tab aside) or
  a surrogate, or ``\" \\ \n \t \r \uXXXX`` (a surrogate only as a
  high-low pair), then ``"``

A list is ``[]`` or ``[v, ...]`` of scalars of one kind. Every syntax error
is an ``OptionsSyntaxError`` with the 1-based line and column where the
scanner stopped.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping, Optional, Union

from .errors import InvalidOptionValue, OptionsSyntaxError

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class Kind(Enum):
    """The five value kinds of the options language."""

    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"
    TEXT = "text"
    LIST = "list"


_SCALAR_KINDS = (Kind.INTEGER, Kind.FLOAT, Kind.BOOLEAN, Kind.TEXT)


class OptionValue:
    """One typed, immutable value.

    Floats must be finite; list elements must all share one scalar kind
    (an empty list carries no element kind and satisfies any list slot).
    Equality is exact: float comparison is at the bit level, so 0.0 and
    -0.0 are distinct and equal values always emit identical bytes.
    """

    __slots__ = ("kind", "value")

    def __init__(self, kind: Kind, value):
        if kind is Kind.INTEGER:
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidOptionValue(f"integer value expected, got {value!r}")
            if not INT64_MIN <= value <= INT64_MAX:
                raise InvalidOptionValue(f"integer {value} outside the 64-bit signed range")
        elif kind is Kind.FLOAT:
            if isinstance(value, int) and not isinstance(value, bool):
                value = float(value)
            if not isinstance(value, float):
                raise InvalidOptionValue(f"float value expected, got {value!r}")
            if not math.isfinite(value):
                raise InvalidOptionValue("non-finite floats are not representable")
        elif kind is Kind.BOOLEAN:
            if not isinstance(value, bool):
                raise InvalidOptionValue(f"boolean value expected, got {value!r}")
        elif kind is Kind.TEXT:
            if not isinstance(value, str):
                raise InvalidOptionValue(f"text value expected, got {value!r}")
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise InvalidOptionValue(f"text is not valid Unicode: {exc}") from None
        elif kind is Kind.LIST:
            items = tuple(value)
            elem_kind = None
            for item in items:
                if not isinstance(item, OptionValue):
                    raise InvalidOptionValue("list elements must be OptionValue instances")
                if item.kind not in _SCALAR_KINDS:
                    raise InvalidOptionValue("lists cannot be nested")
                if elem_kind is None:
                    elem_kind = item.kind
                elif item.kind is not elem_kind:
                    raise InvalidOptionValue(
                        f"heterogeneous list: {elem_kind.value} and {item.kind.value}")
            value = items
        else:  # pragma: no cover - exhaustive enum
            raise InvalidOptionValue(f"unknown kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, _value):
        raise AttributeError("OptionValue is immutable")

    @classmethod
    def of(cls, value) -> "OptionValue":
        """Wrap a plain Python value, inferring the kind."""
        if isinstance(value, OptionValue):
            return value
        if isinstance(value, bool):
            return cls(Kind.BOOLEAN, value)
        if isinstance(value, int):
            return cls(Kind.INTEGER, value)
        if isinstance(value, float):
            return cls(Kind.FLOAT, value)
        if isinstance(value, str):
            return cls(Kind.TEXT, value)
        if isinstance(value, (list, tuple)):
            return cls(Kind.LIST, tuple(cls.of(v) for v in value))
        raise InvalidOptionValue(f"cannot represent {value!r} as an option value")

    @property
    def elem_kind(self) -> Optional[Kind]:
        """Element kind of a list value; None for empty lists and scalars."""
        if self.kind is not Kind.LIST or not self.value:
            return None
        return self.value[0].kind

    def python(self):
        """Plain Python rendering (lists become lists of plain values)."""
        if self.kind is Kind.LIST:
            return [item.python() for item in self.value]
        return self.value

    def _eq_key(self):
        if self.kind is Kind.FLOAT:
            return (self.kind, struct.pack("<d", self.value))
        if self.kind is Kind.LIST:
            return (self.kind, tuple(item._eq_key() for item in self.value))
        return (self.kind, self.value)

    def __eq__(self, other):
        if not isinstance(other, OptionValue):
            return NotImplemented
        return self._eq_key() == other._eq_key()

    def __hash__(self):
        return hash(self._eq_key())

    def __repr__(self):
        return f"OptionValue({self.kind.value}, {value_to_text(self)})"


@dataclass(frozen=True)
class KindSpec:
    """Declared kind of a component property; lists carry an element kind."""

    kind: Kind
    elem: Optional[Kind] = None

    def admits(self, value: OptionValue) -> bool:
        if value.kind is not self.kind:
            return False
        if self.kind is Kind.LIST and value.value:
            return value.elem_kind is self.elem
        return True

    def label(self) -> str:
        if self.kind is Kind.LIST:
            return f"list of {self.elem.value}" if self.elem else "list"
        return self.kind.value


@dataclass(frozen=True)
class OptionKey:
    """Dotted key: the first segment names a component, the rest a property."""

    component: str
    prop: str

    def __post_init__(self):
        segments = [self.component, *self.prop.split(".")]
        if not self.prop:
            raise InvalidOptionValue(f"key {self.component!r} needs at least two segments")
        for segment in segments:
            if not _IDENT_RE.match(segment):
                raise InvalidOptionValue(
                    f"bad key segment {segment!r} in {self.component}.{self.prop}")

    @classmethod
    def parse(cls, text: str) -> "OptionKey":
        component, _, prop = text.partition(".")
        return cls(component, prop)

    @property
    def text(self) -> str:
        return f"{self.component}.{self.prop}"

    def __str__(self):
        return self.text


KeyLike = Union[OptionKey, str]


class OptionsSet:
    """Uniquely-keyed assignments; iteration is sorted by key bytes."""

    def __init__(self, entries=None):
        self._entries: dict[OptionKey, OptionValue] = {}
        if entries is not None:
            items = entries.items() if isinstance(entries, Mapping) else entries
            for key, value in items:
                self.set(key, value)

    @staticmethod
    def _as_key(key: KeyLike) -> OptionKey:
        return key if isinstance(key, OptionKey) else OptionKey.parse(key)

    def set(self, key: KeyLike, value) -> None:
        """Assign, overriding any previous value for the key."""
        self._entries[self._as_key(key)] = OptionValue.of(value)

    def get(self, key: KeyLike, default=None) -> Optional[OptionValue]:
        return self._entries.get(self._as_key(key), default)

    def __getitem__(self, key: KeyLike) -> OptionValue:
        return self._entries[self._as_key(key)]

    def __contains__(self, key: KeyLike) -> bool:
        return self._as_key(key) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[tuple[OptionKey, OptionValue]]:
        return iter(self.items())

    def items(self) -> list[tuple[OptionKey, OptionValue]]:
        # UTF-8 preserves code-point order, so plain str order is key-byte order
        return sorted(self._entries.items(), key=lambda kv: kv[0].text)

    def keys(self) -> list[OptionKey]:
        return [key for key, _ in self.items()]

    def copy(self) -> "OptionsSet":
        out = OptionsSet()
        out._entries = dict(self._entries)
        return out

    def __eq__(self, other):
        if not isinstance(other, OptionsSet):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self):
        return f"OptionsSet({len(self._entries)} entries)"


# --- parsing ----------------------------------------------------------------

_BLANK_RE = re.compile(r"[ \t]*")
_KEY_RE = re.compile(r"\w*(?:\.\w*)*")
_WORD_RE = re.compile(r"\w*")
# Empty digit groups match so that the scanner can name the missing digits.
_NUMBER_RE = re.compile(r"-?([0-9]*)(?:\.([0-9]*))?(?:[eE][+-]?([0-9]*))?")
_HEX4_RE = re.compile(r"[0-9a-fA-F]{4}")
# The longest valid body, then the closing quote if there is one.
_STRING_RE = re.compile(
    r'"((?:[^"\\\x00-\x08\x0a-\x1f\ud800-\udfff]+|\\["\\ntr]'
    r"|\\u(?:[dD][89abAB][0-9a-fA-F]{2}\\u[dD][c-fC-F][0-9a-fA-F]{2}"
    r"|(?![dD][89a-fA-F])[0-9a-fA-F]{4}))*)(\")?")
_ESCAPE_RE = re.compile(r"\\(?:u([dD][89abAB]..)\\u(....)|u(....)|(.))", re.DOTALL)
_TEXT_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": "\\r"}
_TEXT_ESCAPE_RE = re.compile(r'["\\\x00-\x1f]')
_SIMPLE_ESCAPES = {escape[1]: ch for ch, escape in _TEXT_ESCAPES.items()}
_BOOLEANS = {"true": OptionValue(Kind.BOOLEAN, True),
             "false": OptionValue(Kind.BOOLEAN, False)}
_CR_MESSAGE = "carriage return: documents use LF line endings"


class _ScanError(Exception):
    """Syntax error inside one line; args are (message, 0-based offset)."""


def _scan_key(text: str, pos: int) -> tuple[OptionKey, int]:
    end = _KEY_RE.match(text, pos).end()
    try:
        return OptionKey.parse(text[pos:end]), end  # the key checks its segments
    except InvalidOptionValue:
        pass  # find the column of the first bad segment
    seg_start = pos
    for segment in text[pos:end].split("."):
        if not _IDENT_RE.match(segment):
            raise _ScanError("malformed key", seg_start)
        seg_start += len(segment) + 1
    raise _ScanError("malformed key: need Component.Property", pos)


def _scan_value(text: str, pos: int, in_list: bool = False) -> tuple[OptionValue, int]:
    ch = text[pos:pos + 1]
    if ch == '"':
        return _scan_string(text, pos)
    if ch == "[":
        if in_list:
            raise _ScanError("nested lists are not allowed", pos)
        return _scan_list(text, pos)
    if ch == "-" or "0" <= ch <= "9":
        return _scan_number(text, pos)
    if ch.isalpha():
        end = _WORD_RE.match(text, pos).end()
        word = text[pos:end]
        if word in _BOOLEANS:
            return _BOOLEANS[word], end
        raise _ScanError(f"unparseable token {word!r}", pos)
    raise _ScanError("expected a value", pos)


def _unescape(match: re.Match) -> str:
    high, low, code, simple = match.groups()
    if high:
        return chr(0x10000 + ((int(high, 16) - 0xD800) << 10) + (int(low, 16) - 0xDC00))
    return chr(int(code, 16)) if code else _SIMPLE_ESCAPES[simple]


def _scan_string(text: str, pos: int) -> tuple[OptionValue, int]:
    match = _STRING_RE.match(text, pos)
    if match.group(2) is None:
        raise _string_error(text, pos, match.end())
    body = match.group(1)
    if "\\" in body:
        body = _ESCAPE_RE.sub(_unescape, body)
    return OptionValue(Kind.TEXT, body), match.end()


def _string_error(text: str, start: int, pos: int) -> _ScanError:
    """The error for the character at `pos` that ends a string body early."""
    if pos == len(text):
        return _ScanError("unterminated string", start)
    ch = text[pos]
    if ch in "\r\n":
        return _ScanError("raw line break in string; use \\n or \\r", pos)
    if ch < " ":
        return _ScanError(f"raw control character U+{ord(ch):04X} in string; "
                          "use a \\u escape", pos)
    if ch != "\\":
        return _ScanError(f"raw surrogate U+{ord(ch):04X} in string; "
                          "use a \\u escape pair", pos)
    esc = text[pos + 1:pos + 2]
    if not esc:
        return _ScanError("dangling escape", pos + 1)
    if esc != "u":
        return _ScanError(f"unknown escape \\{esc}", pos)
    if not _HEX4_RE.match(text, pos + 2):
        return _ScanError("\\u escape needs four hex digits", pos + 2)
    # A valid \u escape ends the body only as a surrogate outside a pair. A
    # high one followed by another \u escape is reported at that escape.
    if int(text[pos + 2:pos + 6], 16) < 0xDC00 and text.startswith("\\u", pos + 6):
        if not _HEX4_RE.match(text, pos + 8):
            return _ScanError("\\u escape needs four hex digits", pos + 8)
        pos += 6
    return _ScanError("lone surrogate in \\u escape", pos)


def _scan_list(text: str, pos: int) -> tuple[OptionValue, int]:
    pos += 1
    if text.startswith("]", pos):
        return OptionValue(Kind.LIST, ()), pos + 1
    items: list[OptionValue] = []
    while True:
        item, end = _scan_value(text, pos, in_list=True)
        if items and item.kind is not items[0].kind:
            raise _ScanError(f"heterogeneous list: {items[0].kind.value} "
                             f"then {item.kind.value}", pos)
        items.append(item)
        if text.startswith("]", end):
            return OptionValue(Kind.LIST, tuple(items)), end + 1
        if not text.startswith(",", end):
            raise _ScanError("expected ',' or ']' in list", end)
        pos = _BLANK_RE.match(text, end + 1).end()


def _scan_number(text: str, pos: int) -> tuple[OptionValue, int]:
    match = _NUMBER_RE.match(text, pos)
    int_digits, frac_digits, exp_digits = match.groups()
    if not int_digits:
        raise _ScanError("expected digits", pos)
    if len(int_digits) > 1 and int_digits[0] == "0":
        raise _ScanError("leading zeros are not allowed", match.start(1))
    if frac_digits == "":
        raise _ScanError("expected digits after '.'", match.start(2))
    if exp_digits == "":
        raise _ScanError("expected digits in exponent", match.start(3))
    token = match.group()
    if frac_digits is None and exp_digits is None:
        # 19 digits bound int64 and keep int() under its digit limit
        if len(int_digits) > 19 or not INT64_MIN <= int(token) <= INT64_MAX:
            raise _ScanError(f"integer {token} outside the 64-bit signed range", pos)
        return OptionValue(Kind.INTEGER, int(token)), match.end()
    value = float(token)
    if not math.isfinite(value):
        raise _ScanError(f"float literal {token!r} is not a finite double", pos)
    return OptionValue(Kind.FLOAT, value), match.end()


def parse_options(text: str) -> OptionsSet:
    """Parse a document; later assignments to a key override earlier ones."""
    out = OptionsSet()
    for line_no, line in enumerate(text.split("\n"), start=1):
        try:
            pos = _BLANK_RE.match(line).end()
            if pos == len(line) or line[pos] == "#":
                continue
            if line[pos] == "\r":
                raise _ScanError(_CR_MESSAGE, pos)
            key, pos = _scan_key(line, pos)
            pos = _BLANK_RE.match(line, pos).end()
            if not line.startswith("=", pos):
                raise _ScanError("expected '=' after key", pos)
            value, pos = _scan_value(line, _BLANK_RE.match(line, pos + 1).end())
            pos = _BLANK_RE.match(line, pos).end()
            if pos < len(line):
                raise _ScanError(_CR_MESSAGE if line[pos] == "\r"
                                 else "unexpected text after value", pos)
        except _ScanError as exc:
            raise OptionsSyntaxError(exc.args[0], line_no, exc.args[1] + 1) from None
        out.set(key, value)
    return out


def parse_value(text: str) -> OptionValue:
    """Parse one value token; the whole string must be consumed."""
    try:
        value, pos = _scan_value(text, 0)
        if pos < len(text):
            raise _ScanError("unexpected text after value", pos)
    except _ScanError as exc:
        raise OptionsSyntaxError(exc.args[0], 1, exc.args[1] + 1) from None
    return value


# --- canonical emission ------------------------------------------------------

def _escape_char(match: re.Match) -> str:
    ch = match.group()
    return _TEXT_ESCAPES.get(ch) or f"\\u{ord(ch):04x}"


def value_to_text(value: OptionValue) -> str:
    """Canonical text for one value; parsing it back is bit-exact."""
    if value.kind is Kind.INTEGER:
        return str(value.value)
    if value.kind is Kind.FLOAT:
        # repr() is the shortest decimal string that round-trips the double
        return repr(value.value)
    if value.kind is Kind.BOOLEAN:
        return "true" if value.value else "false"
    if value.kind is Kind.TEXT:
        return '"' + _TEXT_ESCAPE_RE.sub(_escape_char, value.value) + '"'
    return "[" + ", ".join(value_to_text(item) for item in value.value) + "]"


def emit_canonical(options: OptionsSet) -> str:
    """Byte-exact canonical document: sorted keys, LF endings."""
    return "".join(f"{key.text} = {value_to_text(value)}\n"
                   for key, value in options.items())
