"""Component model: named, configurable pieces of a job.

A component class is the one description of a component: its `__name__`
is the name the config, the capture and replay know it by, and its
`PROPERTIES` table of (name, kind, default) rows is resolved once, when
the class is made, into `kinds` and `defaults`. A `Class.Prop` that is not
a valid options key, or a default not of its kind, fails the class's
creation. An instance holds only `values`, a copy of the defaults, which
option application replaces and the capture snapshots at finalize.
"""

from __future__ import annotations

from .errors import KindMismatch, UnknownProperty
from .options import Kind, KindSpec, OptionKey, OptionValue


class Component:
    """Base for algorithms, services, and tools."""

    PROPERTIES: tuple = ()
    kinds: dict[str, KindSpec] = {}
    defaults: dict[str, OptionValue] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.kinds, cls.defaults = {}, {}
        for prop_name, kind, default in cls.PROPERTIES:
            OptionKey(cls.__name__, prop_name)  # refuses a bad key segment
            spec = kind if isinstance(kind, KindSpec) else KindSpec(kind)
            value = OptionValue.of(default)
            if not spec.admits(value):
                raise KindMismatch(f"default for {prop_name!r} is not {spec.label()}")
            cls.kinds[prop_name], cls.defaults[prop_name] = spec, value

    def __init__(self):
        self.name = type(self).__name__
        self.values: dict[str, OptionValue] = dict(self.defaults)

    def _no_property(self, prop_name: str) -> UnknownProperty:
        return UnknownProperty(f"component {self.name!r} has no property {prop_name!r}")

    def apply(self, prop_name: str, value: OptionValue) -> None:
        """Resolve a declared property to `value`, which must fit its kind."""
        kind = self.kinds.get(prop_name)
        if kind is None:
            raise self._no_property(prop_name)
        if not kind.admits(value):
            raise KindMismatch(f"property {prop_name!r} wants {kind.label()}, "
                               f"got {value.kind.value}")
        self.values[prop_name] = value

    def value(self, prop_name: str):
        """Resolved plain-Python value of a property."""
        value = self.values.get(prop_name)
        if value is None:
            raise self._no_property(prop_name)
        return value.python()

    def __repr__(self):
        return f"<{self.name}>"


LIST_OF_TEXT = KindSpec(Kind.LIST, Kind.TEXT)
