r"""The job-options configuration language.

Documents are line-oriented: every line is blank, a ``#`` comment, or an
assignment ``Component.Property = value``. Values are 64-bit signed
integers, finite 64-bit floats, booleans, double-quoted strings, or flat
homogeneous lists of those scalars. Canonical emission is byte-exact:
keys sorted by the UTF-8 bytes of the full dotted key, LF line endings,
a single space around ``=``, floats rendered as the shortest decimal
string that parses back to the same bits. Parsing the canonical emission
of any set reproduces the set; re-emitting is a byte fixpoint.

The fast path: one match of the plain-line pattern takes an assignment as
canonical emission writes it, its value an escape-free string, an integer of
at most 19 digits, a float, a boolean or a ``", "``-joined list of
escape-free strings. Every other line, and one whose number is out of
range, goes to the token scanner, which reads it once, left to right, and
raises where it stops. Its tokens (``[0-9]`` is ASCII only):

- blank: ``[ \t]*``, around ``=``, after a value and after a list's ``,``;
  a line that is blank up to ``#`` or its end is a comment or a blank line
- key: ``\w*(?:\.\w*)*``, two or more ``[A-Za-z_][A-Za-z0-9_]*`` segments
  checked one by one, then ``=``
- word: ``\w*`` that starts with a letter; only ``true`` and ``false`` are values
- number: ``-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?`` without leading zeros
- string: ``"``, then runs of any character but ``"``, ``\``, a control (tab
  aside) or a surrogate, and escapes ``\" \\ \n \t \r \uXXXX`` (a surrogate
  only as a high-low pair), then ``"``

A list is ``[]`` or ``[v, ...]`` of scalars of one kind. Every syntax error
is an ``OptionsSyntaxError`` with the 1-based line and column where the
scanner stopped: errors come only from the token scanner.

``OptionValue.of`` is the one checked way to make a value: the Python type gives
the kind, the value must lie in its domain; there is no ``OptionValue(kind, value)``.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping, Optional

from .errors import InvalidOptionValue, KindMismatch, OptionsSyntaxError

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
    """Declared kind of a component property; a list, and only a list,
    carries the scalar kind of its elements."""

    kind: Kind
    elem: Optional[Kind] = None

    def __post_init__(self):
        if self.kind is not Kind.LIST:
            if self.elem is not None:
                raise KindMismatch(f"a {self.kind.value} kind takes no element kind")
        elif self.elem in (None, Kind.LIST):
            raise KindMismatch("a list kind needs a scalar element kind")

    def admits(self, value: OptionValue) -> bool:
        """Whether `value` is of this kind; an empty list fits any list kind."""
        return value.kind is self.kind and (value.elem_kind is self.elem or not value.value)

    def label(self) -> str:
        return f"list of {self.elem.value}" if self.elem else self.kind.value


class OptionKey(str):
    """Dotted key: the first segment names a component, the rest a property.

    A key is its dotted text: it hashes, compares and sorts as that text,
    and equals the plain string of it (`OptionKey("A", "B") == "A.B"`).
    """

    __slots__ = ()

    def __new__(cls, component: str, prop: str) -> "OptionKey":
        if not (_IDENT_RE.match(component) and _PROPERTY_RE.match(prop)):
            if not prop:
                raise InvalidOptionValue(f"key {component!r} needs at least two segments")
            bad = next(segment for segment in (component, *prop.split("."))
                       if not _IDENT_RE.match(segment))  # name the first bad one
            raise InvalidOptionValue(f"bad key segment {bad!r} in {component}.{prop}")
        return cls._checked(f"{component}.{prop}")

    # the key of dotted text that the caller has already checked, made with
    # no Python frame, as the parser makes one per line
    _checked = classmethod(str.__new__)

    @classmethod
    def parse(cls, text: str) -> "OptionKey":
        component, _, prop = text.partition(".")
        return cls(component, prop)

    @property
    def component(self) -> str:
        return self.partition(".")[0]

    @property
    def prop(self) -> str:
        return self.partition(".")[2]

    text = property(str.__str__, doc="The dotted key as a plain string.")

    def __getnewargs__(self):  # pickle and copy call __new__ with these
        return self.component, self.prop

    def __repr__(self):
        return f"OptionKey(component={self.component!r}, prop={self.prop!r})"


# `_checked` fills a new instance through the slots' own setters, past the
# immutability guard and without a `__setattr__` lookup.
_new = object.__new__
_set_kind, _set_value = OptionValue.kind.__set__, OptionValue.value.__set__


class OptionsSet:
    """Uniquely-keyed assignments; iteration is sorted by key bytes. A lookup
    takes a key as its text, so a malformed key is absent; `set` checks it."""

    def __init__(self, entries=None):
        self._entries: dict[OptionKey, OptionValue] = {}
        if entries is not None:
            items = entries.items() if isinstance(entries, Mapping) else entries
            for key, value in items:
                self.set(key, value)

    def set(self, key: str, value) -> None:
        """Assign, overriding any previous value for the key."""
        key = key if isinstance(key, OptionKey) else OptionKey.parse(key)
        self._entries[key] = OptionValue.of(value)

    def get(self, key: str, default=None) -> Optional[OptionValue]:
        return self._entries.get(key, default)

    def __getitem__(self, key: str) -> OptionValue:
        return self._entries[key]

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[tuple[OptionKey, OptionValue]]:
        return iter(self.items())

    def items(self) -> list[tuple[OptionKey, OptionValue]]:
        # UTF-8 preserves code-point order, so plain str order is key-byte order
        return sorted(self._entries.items())  # keys are unique: values never compare

    def keys(self) -> list[OptionKey]:
        return sorted(self._entries)

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
# An assignment's head up to its value; the group is the dotted key.
_ASSIGN = rf"[ \t]*({_IDENT}\.{_IDENT}(?:\.{_IDENT})*)[ \t]*=[ \t]*"
_KEY_RE = re.compile(r"\w*(?:\.\w*)*")
_WORD_RE = re.compile(r"\w*")
# Empty digit groups match so that the scanner can name the missing digits.
_NUMBER_RE = re.compile(r"-?([0-9]*)(?:\.([0-9]*))?(?:[eE][+-]?([0-9]*))?")
_HEX4_RE = re.compile(r"[0-9a-fA-F]{4}")
# A string body character that needs no escape.
_TEXT_CHAR = r'[^"\\\x00-\x08\x0a-\x1f\ud800-\udfff]'
_TEXT_RUN_RE = re.compile(_TEXT_CHAR + "*")
_TEXT_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\t": "\\t", "\r": "\\r"}
_ESCAPED_RE = re.compile(r'["\\\x00-\x1f]')
_SIMPLE_ESCAPES = {escape[1]: ch for ch, escape in _TEXT_ESCAPES.items()}
_BOOLEANS = {"true": OptionValue.of(True), "false": OptionValue.of(False)}
_CR_MESSAGE = "carriage return: documents use LF line endings"
# A whole line in a form that canonical emission writes: the key, then one
# value group of the kind `_PLAIN_KINDS` gives at its number.
_PLAIN_RE = re.compile(
    rf'{_ASSIGN}(?:"({_TEXT_CHAR}*)"|(-?(?:0|[1-9][0-9]{{0,18}}))'
    r"|(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+))"
    rf'|(true|false)|\[("{_TEXT_CHAR}*"(?:, "{_TEXT_CHAR}*")*)\])[ \t]*\Z')
_PLAIN_KINDS = (None, None, Kind.TEXT, Kind.INTEGER, Kind.FLOAT, Kind.BOOLEAN, Kind.LIST)
_INTEGER, _FLOAT, _BOOLEAN, _LIST = range(3, 7)  # value groups, by number


class _ScanError(Exception):
    """Syntax error inside one line; args are (message, 0-based offset)."""


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


def _scan_string(text: str, start: int) -> tuple[OptionValue, int]:
    """The string at `start`, read one run of plain characters or one escape
    at a time up to its closing quote."""
    parts = []
    pos = start + 1
    while True:
        end = _TEXT_RUN_RE.match(text, pos).end()
        parts.append(text[pos:end])
        ch = text[end:end + 1]
        if ch == '"':
            return OptionValue._checked(Kind.TEXT, "".join(parts)), end + 1
        if ch == "\\":
            ch, pos = _scan_escape(text, end)
            parts.append(ch)
        elif not ch:
            raise _ScanError("unterminated string", start)
        elif ch in "\r\n":
            raise _ScanError("raw line break in string; use \\n or \\r", end)
        elif ch < " ":
            raise _ScanError(f"raw control character U+{ord(ch):04X} in string; "
                             "use a \\u escape", end)
        else:
            raise _ScanError(f"raw surrogate U+{ord(ch):04X} in string; "
                             "use a \\u escape pair", end)


def _scan_escape(text: str, pos: int) -> tuple[str, int]:
    """The character of the escape at `pos` and the offset past it; a
    surrogate only as a high-low pair of escapes."""
    esc = text[pos + 1:pos + 2]
    if esc in _SIMPLE_ESCAPES:
        return _SIMPLE_ESCAPES[esc], pos + 2
    if not esc:
        raise _ScanError("dangling escape", pos + 1)
    if esc != "u":
        raise _ScanError(f"unknown escape \\{esc}", pos)
    code = _scan_hex4(text, pos + 2)
    if not 0xD800 <= code <= 0xDFFF:
        return chr(code), pos + 6
    # a high surrogate followed by an escape that is not its low one is
    # reported at that escape
    if code < 0xDC00 and text.startswith("\\u", pos + 6):
        low = _scan_hex4(text, pos + 8)
        if 0xDC00 <= low <= 0xDFFF:
            return chr(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)), pos + 12
        pos += 6
    raise _ScanError("lone surrogate in \\u escape", pos)


def _scan_hex4(text: str, pos: int) -> int:
    if not _HEX4_RE.match(text, pos):
        raise _ScanError("\\u escape needs four hex digits", pos)
    return int(text[pos:pos + 4], 16)


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


def _plain_assignment(line: str) -> Optional[tuple[OptionKey, OptionValue]]:
    """The assignment on `line` if `_PLAIN_RE` takes it and its number lies
    in the value domain; None hands the line to the token scanner."""
    match = _PLAIN_RE.match(line)
    if match is None:
        return None
    group = match.lastindex
    value = match[group]
    if group == _INTEGER:
        if not INT64_MIN <= (value := int(value)) <= INT64_MAX:
            return None
    elif group == _FLOAT:
        if not math.isfinite(value := float(value)):
            return None
    elif group == _BOOLEAN:
        value = value == "true"
    elif group == _LIST:
        # a list, not a generator: with one, 1e5 parses grew the heap by 140 KiB
        texts = value[1:-1].split('", "')
        value = tuple([OptionValue._checked(Kind.TEXT, text) for text in texts])
    return OptionKey._checked(match[1]), OptionValue._checked(_PLAIN_KINDS[group], value)


def _scan_assignment(line: str) -> Optional[tuple[OptionKey, OptionValue]]:
    """The assignment on `line`, token by token; None for a blank or comment.
    Raises `_ScanError` at the first error."""
    start = _BLANK_RE.match(line).end()
    if start == len(line) or line[start] == "#":
        return None
    if line[start] == "\r":
        raise _ScanError(_CR_MESSAGE, start)
    end = _KEY_RE.match(line, start).end()
    segments = line[start:end].split(".")
    pos = start
    for segment in segments:
        if not _IDENT_RE.match(segment):
            raise _ScanError("malformed key", pos)
        pos += len(segment) + 1
    if len(segments) < 2:
        raise _ScanError("malformed key: need Component.Property", start)
    pos = _BLANK_RE.match(line, end).end()
    if not line.startswith("=", pos):
        raise _ScanError("expected '=' after key", pos)
    value, pos = _scan_value(line, _BLANK_RE.match(line, pos + 1).end())
    if pos < len(line):
        pos = _BLANK_RE.match(line, pos).end()
        if pos < len(line):
            raise _ScanError(_CR_MESSAGE if line[pos] == "\r"
                             else "unexpected text after value", pos)
    return OptionKey._checked(line[start:end]), value


def parse_options(text: str) -> OptionsSet:
    """Parse a document; later assignments to a key override earlier ones."""
    out = OptionsSet()
    entries = out._entries
    for line_no, line in enumerate(text.split("\n"), start=1):
        entry = _plain_assignment(line)
        if entry is None:
            try:
                entry = _scan_assignment(line)
            except _ScanError as exc:
                raise OptionsSyntaxError(exc.args[0], line_no, exc.args[1] + 1) from None
            if entry is None:
                continue  # blank or comment
        entries[entry[0]] = entry[1]
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
        return '"' + _ESCAPED_RE.sub(_escape_char, value.value) + '"'
    return "[" + ", ".join(value_to_text(item) for item in value.value) + "]"


def emit_canonical(options: OptionsSet) -> str:
    """Byte-exact canonical document: sorted keys, LF endings."""
    return "".join(f"{key.text} = {value_to_text(value)}\n"
                   for key, value in options.items())
