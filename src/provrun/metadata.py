"""The flat metadata dictionary: a job's resolved configuration as one typed
options set, iterated in key-byte order. This is what gets embedded in the
output container's `info` block and what replay reconstructs a job from.
Values stay typed from capture to disk and back; canonical value text is
made only where values are shown (`items`, `[]`, `get`, and so `diff`)."""

from __future__ import annotations

from typing import Iterator

from .options import OptionsSet, emit_canonical, value_to_text


class MetadataDictionary:
    """Immutable snapshot of a job's resolved configuration.

    Equality is that of the typed values, which canonical text mirrors:
    `0.0` differs from `-0.0`, and `1` from `1.0`.
    """

    def __init__(self, options_set: OptionsSet):
        self._options = options_set.copy()

    def to_options(self) -> OptionsSet:
        """A copy of the typed set, free for the caller to change."""
        return self._options.copy()

    def emit(self) -> str:
        """Canonical options document; the single codec shared with configs."""
        return emit_canonical(self._options)

    def items(self) -> list[tuple[str, str]]:
        """(full dotted key, canonical value text) pairs in key-byte order."""
        return [(key, value_to_text(value)) for key, value in self._options]

    def keys(self) -> list[str]:
        return self._options.keys()

    def get(self, key: str, default=None):
        value = self._options.get(key)
        return default if value is None else value_to_text(value)

    def without(self, *keys: str) -> "MetadataDictionary":
        return MetadataDictionary(OptionsSet(
            (key, value) for key, value in self._options if key not in keys))

    def __getitem__(self, key: str) -> str:
        return value_to_text(self._options[key])

    def __contains__(self, key: str) -> bool:
        return key in self._options

    def __len__(self) -> int:
        return len(self._options)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self.items())

    def __eq__(self, other):
        if not isinstance(other, MetadataDictionary):
            return NotImplemented
        return self._options == other._options

    def __repr__(self):
        return f"MetadataDictionary({len(self._options)} entries)"
