"""The job-options configuration language.

Documents are line-oriented: every line is blank, a ``#`` comment, or an
assignment ``Component.Property = value``. Values are 64-bit signed
integers, finite 64-bit floats, booleans, double-quoted strings, or flat
homogeneous lists of those scalars. Canonical emission is byte-exact:
keys sorted by the UTF-8 bytes of the full dotted key, LF line endings,
a single space around ``=``, floats rendered as the shortest decimal
string that parses back to the same bits. Parsing the canonical emission
of any set reproduces the set; re-emitting is a byte fixpoint.
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
_WS = " \t"


def _is_digit(ch: str) -> bool:
    # ASCII only: str.isdigit() would admit Unicode digits the grammar forbids
    return "0" <= ch <= "9"


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

    def sort_key(self) -> bytes:
        return self.text.encode("utf-8")

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
        return sorted(self._entries.items(), key=lambda kv: kv[0].sort_key())

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


def merge(base: OptionsSet, overlay: OptionsSet) -> OptionsSet:
    """Union of keys; overlay wins on conflicts."""
    out = base.copy()
    for key, value in overlay.items():
        out.set(key, value)
    return out


# --- parsing ----------------------------------------------------------------

class _LineScanner:
    """Cursor over a single source line with positioned errors."""

    def __init__(self, text: str, line_no: int):
        self.text = text
        self.line = line_no
        self.pos = 0

    def fail(self, message: str, pos: Optional[int] = None):
        column = (self.pos if pos is None else pos) + 1
        raise OptionsSyntaxError(message, self.line, column)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        return ch

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in _WS:
            self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    # tokens ------------------------------------------------------------

    def scan_word(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start:self.pos]

    def scan_key(self) -> OptionKey:
        start = self.pos
        segments = []
        while True:
            seg_start = self.pos
            word = self.scan_word()
            if not word or not _IDENT_RE.match(word):
                self.fail("malformed key", seg_start)
            segments.append(word)
            if self.peek() == ".":
                self.advance()
            else:
                break
        if len(segments) < 2:
            self.fail("malformed key: need Component.Property", start)
        return OptionKey(segments[0], ".".join(segments[1:]))

    def scan_value(self, allow_list: bool = True) -> OptionValue:
        ch = self.peek()
        if ch == '"':
            return self.scan_string()
        if ch == "[":
            if not allow_list:
                self.fail("nested lists are not allowed")
            return self.scan_list()
        if ch == "-" or _is_digit(ch):
            return self.scan_number()
        if ch.isalpha():
            start = self.pos
            word = self.scan_word()
            if word == "true":
                return OptionValue(Kind.BOOLEAN, True)
            if word == "false":
                return OptionValue(Kind.BOOLEAN, False)
            self.fail(f"unparseable token {word!r}", start)
        self.fail("expected a value")

    def scan_string(self) -> OptionValue:
        start = self.pos
        self.advance()  # opening quote
        out = []
        while True:
            if self.at_end():
                self.fail("unterminated string", start)
            ch = self.advance()
            if ch == '"':
                break
            if ch == "\\":
                out.append(self._scan_escape())
            elif ch in ("\r", "\n"):
                self.fail("raw line break in string; use \\n or \\r", self.pos - 1)
            elif ord(ch) < 0x20 and ch != "\t":
                self.fail(f"raw control character U+{ord(ch):04X} in string; "
                          "use a \\u escape", self.pos - 1)
            else:
                out.append(ch)
        return OptionValue(Kind.TEXT, "".join(out))

    def _scan_escape(self) -> str:
        if self.at_end():
            self.fail("dangling escape")
        esc = self.advance()
        simple = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}
        if esc in simple:
            return simple[esc]
        if esc == "u":
            code = self._scan_hex4()
            if 0xD800 <= code <= 0xDBFF:
                # high surrogate: a low-surrogate escape must follow
                if self.peek() == "\\" and self.text[self.pos:self.pos + 2] == "\\u":
                    self.pos += 2
                    low = self._scan_hex4()
                    if 0xDC00 <= low <= 0xDFFF:
                        return chr(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
                self.fail("lone surrogate in \\u escape", self.pos - 6)
            if 0xDC00 <= code <= 0xDFFF:
                self.fail("lone surrogate in \\u escape", self.pos - 6)
            return chr(code)
        self.fail(f"unknown escape \\{esc}", self.pos - 2)

    def _scan_hex4(self) -> int:
        digits = self.text[self.pos:self.pos + 4]
        if len(digits) < 4 or any(c not in "0123456789abcdefABCDEF" for c in digits):
            self.fail("\\u escape needs four hex digits")
        self.pos += 4
        return int(digits, 16)

    def scan_list(self) -> OptionValue:
        self.advance()  # '['
        items: list[OptionValue] = []
        if self.peek() == "]":
            self.advance()
            return OptionValue(Kind.LIST, ())
        while True:
            item_start = self.pos
            item = self.scan_value(allow_list=False)
            if items and item.kind is not items[0].kind:
                self.fail(f"heterogeneous list: {items[0].kind.value} "
                          f"then {item.kind.value}", item_start)
            items.append(item)
            ch = self.peek()
            if ch == "]":
                self.advance()
                return OptionValue(Kind.LIST, tuple(items))
            if ch == ",":
                self.advance()
                self.skip_ws()
                continue
            self.fail("expected ',' or ']' in list")

    def scan_number(self) -> OptionValue:
        start = self.pos
        if self.peek() == "-":
            self.advance()
        int_start = self.pos
        while _is_digit(self.peek()):
            self.advance()
        int_digits = self.text[int_start:self.pos]
        if not int_digits:
            self.fail("expected digits", start)
        if len(int_digits) > 1 and int_digits[0] == "0":
            self.fail("leading zeros are not allowed", int_start)
        is_float = False
        if self.peek() == ".":
            is_float = True
            self.advance()
            frac_start = self.pos
            while _is_digit(self.peek()):
                self.advance()
            if self.pos == frac_start:
                self.fail("expected digits after '.'")
        if self.peek() in ("e", "E"):
            is_float = True
            self.advance()
            if self.peek() in ("+", "-"):
                self.advance()
            exp_start = self.pos
            while _is_digit(self.peek()):
                self.advance()
            if self.pos == exp_start:
                self.fail("expected digits in exponent")
        token = self.text[start:self.pos]
        if is_float:
            value = float(token)
            if not math.isfinite(value):
                self.fail(f"float literal {token!r} is not a finite double", start)
            return OptionValue(Kind.FLOAT, value)
        number = int(token)
        if not INT64_MIN <= number <= INT64_MAX:
            self.fail(f"integer {token} outside the 64-bit signed range", start)
        return OptionValue(Kind.INTEGER, number)


def parse_options(text: str) -> OptionsSet:
    """Parse a document; later assignments to a key override earlier ones."""
    out = OptionsSet()
    for line_no, raw in enumerate(text.split("\n"), start=1):
        scanner = _LineScanner(raw, line_no)
        scanner.skip_ws()
        if scanner.at_end():
            continue
        ch = scanner.peek()
        if ch == "#":
            continue
        if ch == "\r":
            scanner.fail("carriage return: documents use LF line endings")
        key = scanner.scan_key()
        scanner.skip_ws()
        if scanner.peek() != "=":
            scanner.fail("expected '=' after key")
        scanner.advance()
        scanner.skip_ws()
        value = scanner.scan_value()
        scanner.skip_ws()
        if not scanner.at_end():
            if scanner.peek() == "\r":
                scanner.fail("carriage return: documents use LF line endings")
            scanner.fail("unexpected text after value")
        out.set(key, value)
    return out


def parse_value(text: str) -> OptionValue:
    """Parse one value token; the whole string must be consumed."""
    scanner = _LineScanner(text, 1)
    value = scanner.scan_value()
    if not scanner.at_end():
        scanner.fail("unexpected text after value")
    return value


# --- canonical emission ------------------------------------------------------

def _escape_text(text: str) -> str:
    out = ['"']
    for ch in text:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


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
        return _escape_text(value.value)
    return "[" + ", ".join(value_to_text(item) for item in value.value) + "]"


def emit_canonical(options: OptionsSet) -> str:
    """Byte-exact canonical document: sorted keys, LF endings."""
    return "".join(f"{key.text} = {value_to_text(value)}\n"
                   for key, value in options.items())
