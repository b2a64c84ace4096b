"""Component model: named, configurable pieces of a job.

A component declares its properties (name, kind, default) as a class-level
table; instances carry per-job resolved values. Before initialize the
resolved value of every property equals its default; option application
replaces it, and the provenance capture later snapshots whatever is
resolved at finalize time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import KindMismatch, UnknownProperty
from .options import Kind, KindSpec, OptionValue


@dataclass
class PropertySpec:
    """A declared property and its currently resolved value."""

    name: str
    kind_spec: KindSpec
    default: OptionValue
    applied: OptionValue = field(init=False)

    def __post_init__(self):
        if not self.kind_spec.admits(self.default):
            raise KindMismatch(f"default for {self.name!r} is not "
                               f"{self.kind_spec.label()}")
        self.applied = self.default

    def apply(self, value: OptionValue) -> None:
        if not self.kind_spec.admits(value):
            raise KindMismatch(f"property {self.name!r} wants "
                               f"{self.kind_spec.label()}, got {value.kind.value}")
        self.applied = value


# property tables are (name, kind-or-kindspec, default) rows
def _as_kind_spec(kind) -> KindSpec:
    return kind if isinstance(kind, KindSpec) else KindSpec(kind)


class Component:
    """Base for algorithms, services, and tools."""

    PROPERTIES: tuple = ()

    def __init__(self):
        self.name = type(self).__name__
        self.specs: dict[str, PropertySpec] = {}
        for prop_name, kind, default in self.PROPERTIES:
            self.specs[prop_name] = PropertySpec(prop_name, _as_kind_spec(kind),
                                                 OptionValue.of(default))

    def spec(self, prop_name: str) -> PropertySpec:
        try:
            return self.specs[prop_name]
        except KeyError:
            raise UnknownProperty(f"component {self.name!r} has no property "
                                  f"{prop_name!r}") from None

    def value(self, prop_name: str):
        """Resolved plain-Python value of a property."""
        return self.spec(prop_name).applied.python()

    def __repr__(self):
        return f"<{self.name}>"


LIST_OF_TEXT = KindSpec(Kind.LIST, Kind.TEXT)
