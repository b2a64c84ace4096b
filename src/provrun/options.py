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

- line head: one match takes a blank line, a ``#`` comment, or an
  assignment's blank, key, blank, ``=`` and blank up to its value. A key
  is two or more ``[A-Za-z_][A-Za-z0-9_]*`` segments joined by ``.``. A
  line whose head does not match is scanned again, token by token, for
  the error and its column: blank ``[ \t]*``, then key ``\w*(?:\.\w*)*``
  with its segments checked one by one
- blank: ``[ \t]*``, after a value and after a list's ``,``
- word: ``\w*`` that starts with a letter; only ``true`` and ``false`` are values
- number: ``-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?`` without leading zeros
- string: ``"`` then any character but ``"``, ``\``, a control (tab aside) or
  a surrogate, or ``\" \\ \n \t \r \uXXXX`` (a surrogate only as a
  high-low pair), then ``"``

A list is ``[]`` or ``[v, ...]`` of scalars of one kind. Every syntax error
is an ``OptionsSyntaxError`` with the 1-based line and column where the
scanner stopped.

``OptionValue.of`` is the one checked way to make a value: the Python type gives
the kind, the value must lie in its domain; there is no ``OptionValue(kind, value)``.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping, Optional, Union

from .errors import InvalidOptionValue, OptionsSyntaxError

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

_IDENT = "[A-Za-z_][A-Za-z0-9_]*"
_IDENT_RE = re.compile(_IDENT + r"\Z")
_PROPERTY_RE = re.compile(rf"{_IDENT}(?:\.{_IDENT})*\Z")


class Kind(Enum):
    """The five value kinds of the options language."""

    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"
    TEXT = "text"
    LIST = "list"


class OptionValue:
    """One typed, immutable value. `OptionValue.of` is the one checked way to
    make one; there is no `OptionValue(kind, value)`.

    Floats must be finite; list elements must all share one scalar kind
    (an empty list carries no element kind and satisfies any list slot).
    Equality is exact: float comparison is at the bit level, so 0.0 and
    -0.0 are distinct and equal values always emit identical bytes.
    """

    __slots__ = ("kind", "value")

    def __setattr__(self, name, _value):
        raise AttributeError("OptionValue is immutable")

    @classmethod
    def _checked(cls, kind: Kind, value) -> "OptionValue":
        """A value of `kind` that the caller has already checked."""
        item = _new(cls)
        _set_kind(item, kind)
        _set_value(item, value)
        return item

    @classmethod
    def of(cls, value) -> "OptionValue":
        """The one checked way to make a value: the Python type gives the kind."""
        if isinstance(value, OptionValue):
            return value
        if isinstance(value, bool):
            return cls._checked(Kind.BOOLEAN, value)
        # store exact built-ins: a subclass's text, e.g. "np.float64(0.5)", is not canonical
        if isinstance(value, int):
            if not INT64_MIN <= value <= INT64_MAX:
                raise InvalidOptionValue(f"integer {value} outside the 64-bit signed range")
            return cls._checked(Kind.INTEGER, int.__int__(value))
        if isinstance(value, float):
            if not math.isfinite(value):
                raise InvalidOptionValue("non-finite floats are not representable")
            return cls._checked(Kind.FLOAT, float.__float__(value))
        if isinstance(value, str):
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise InvalidOptionValue(f"text is not valid Unicode: {exc}") from None
            return cls._checked(Kind.TEXT, str.__str__(value))
        if isinstance(value, (list, tuple)):
            items = tuple(map(cls.of, value))
            for item in items:
                if item.kind is Kind.LIST:
                    raise InvalidOptionValue("lists cannot be nested")
                if item.kind is not items[0].kind:
                    raise InvalidOptionValue(f"heterogeneous list: {items[0].kind.value} "
                                             f"and {item.kind.value}")
            return cls._checked(Kind.LIST, items)
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


@dataclass(frozen=True, slots=True)
class OptionKey:
    """Dotted key: the first segment names a component, the rest a property;
    `text` is the whole dotted key."""

    component: str
    prop: str
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        component, prop = self.component, self.prop
        if not (_IDENT_RE.match(component) and _PROPERTY_RE.match(prop)):
            if not prop:
                raise InvalidOptionValue(f"key {component!r} needs at least two segments")
            bad = next(segment for segment in (component, *prop.split("."))
                       if not _IDENT_RE.match(segment))  # name the first bad one
            raise InvalidOptionValue(f"bad key segment {bad!r} in {component}.{prop}")
        object.__setattr__(self, "text", f"{component}.{prop}")

    @classmethod
    def _checked(cls, component: str, prop: str) -> "OptionKey":
        """A key from segments the caller has already checked."""
        key = _new(cls)
        _set_component(key, component)
        _set_prop(key, prop)
        _set_text(key, f"{component}.{prop}")
        return key

    @classmethod
    def parse(cls, text: str) -> "OptionKey":
        component, _, prop = text.partition(".")
        return cls(component, prop)

    def __str__(self):
        return self.text


# The slots' own setters: `_checked` fills a new instance through them,
# past the immutability guards and without a `__setattr__` lookup.
_new = object.__new__
_set_kind, _set_value = OptionValue.kind.__set__, OptionValue.value.__set__
_set_component, _set_prop, _set_text = (
    OptionKey.component.__set__, OptionKey.prop.__set__, OptionKey.text.__set__)

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
# A blank line, a comment, or an assignment's head up to its value.
_HEAD_RE = re.compile(rf"[ \t]*(?:({_IDENT})\.({_IDENT}(?:\.{_IDENT})*)[ \t]*=[ \t]*|#|\Z)")
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
_BOOLEANS = {"true": OptionValue.of(True), "false": OptionValue.of(False)}
_CR_MESSAGE = "carriage return: documents use LF line endings"


class _ScanError(Exception):
    """Syntax error inside one line; args are (message, 0-based offset)."""


def _head_error(line: str) -> _ScanError:
    """The error in the head of a line that `_HEAD_RE` does not match."""
    pos = _BLANK_RE.match(line).end()
    if line[pos] == "\r":
        return _ScanError(_CR_MESSAGE, pos)
    end = _KEY_RE.match(line, pos).end()
    segments = line[pos:end].split(".")
    seg_start = pos
    for segment in segments:
        if not _IDENT_RE.match(segment):
            return _ScanError("malformed key", seg_start)
        seg_start += len(segment) + 1
    if len(segments) < 2:
        return _ScanError("malformed key: need Component.Property", pos)
    return _ScanError("expected '=' after key", _BLANK_RE.match(line, end).end())


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
    body, closed = match.groups()
    if closed is None:
        raise _string_error(text, pos, match.end())
    if "\\" in body:
        body = _ESCAPE_RE.sub(_unescape, body)
    return OptionValue._checked(Kind.TEXT, body), match.end()


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
        return OptionValue._checked(Kind.LIST, ()), pos + 1
    items: list[OptionValue] = []
    while True:
        item, end = _scan_value(text, pos, in_list=True)
        if items and item.kind is not items[0].kind:
            raise _ScanError(f"heterogeneous list: {items[0].kind.value} "
                             f"then {item.kind.value}", pos)
        items.append(item)
        if text.startswith("]", end):
            return OptionValue._checked(Kind.LIST, tuple(items)), end + 1
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
        if len(int_digits) > 19 or not INT64_MIN <= (value := int(token)) <= INT64_MAX:
            raise _ScanError(f"integer {token} outside the 64-bit signed range", pos)
        return OptionValue._checked(Kind.INTEGER, value), match.end()
    value = float(token)
    if not math.isfinite(value):
        raise _ScanError(f"float literal {token!r} is not a finite double", pos)
    return OptionValue._checked(Kind.FLOAT, value), match.end()


def parse_options(text: str) -> OptionsSet:
    """Parse a document; later assignments to a key override earlier ones."""
    out = OptionsSet()
    entries = out._entries
    for line_no, line in enumerate(text.split("\n"), start=1):
        head = _HEAD_RE.match(line)
        try:
            if head is None:
                raise _head_error(line)
            component, prop = head.groups()
            if component is None:
                continue  # blank or comment
            value, pos = _scan_value(line, head.end())
            if pos < len(line):
                pos = _BLANK_RE.match(line, pos).end()
                if pos < len(line):
                    raise _ScanError(_CR_MESSAGE if line[pos] == "\r"
                                     else "unexpected text after value", pos)
        except _ScanError as exc:
            raise OptionsSyntaxError(exc.args[0], line_no, exc.args[1] + 1) from None
        entries[OptionKey._checked(component, prop)] = value
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
