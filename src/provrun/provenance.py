"""The provenance capture service.

Invoked from finalize only, after every option has been applied, so the
snapshot sees the fully resolved configuration: for each instantiated
component (algorithms, services, tools) every declared property is
recorded with the canonical text of its resolved value, whether it was
set explicitly or left at its default. Input lineage (path + checksum of
each consumed container) rides along under the reserved lineage keys of
`services.lineage_key`. The dictionary never contains wall-clock
times or host identity, which is what makes replay a byte-level fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import NotCollected
from .metadata import MetadataDictionary
from .options import Kind, OptionValue, value_to_text
from .services import Service, lineage_key

SERVICE_NAME = "MetaDataSvc"


@dataclass(frozen=True)
class InputLineage:
    """Identity of one consumed input, dense ordinals in consumption order."""

    ordinal: int
    path: str
    checksum: int


class MetaDataSvc(Service):
    """Collects the metadata dictionary at finalize and hands it out."""

    PROPERTIES = (("Enabled", Kind.BOOLEAN, True),)

    def __init__(self):
        super().__init__()
        self._snapshot: Optional[MetadataDictionary] = None

    def start(self, job) -> None:
        """Collect once; calling again is a no-op (the snapshot is frozen).

        The framework keeps this service out of the initialize-time startup
        and starts it from finalize instead: earlier, only part of the
        configuration would have been applied and the snapshot would lose
        information.
        """
        if self._snapshot is None:
            self._snapshot = self.collect_data(job)

    def collect_data(self, job) -> MetadataDictionary:
        entries: dict[str, str] = {}
        for component in job.iter_components():
            for spec in component.specs.values():
                entries[f"{component.name}.{spec.name}"] = value_to_text(spec.applied)
        for lineage in job.lineage:
            for field, value in (("Path", lineage.path), ("Checksum", lineage.checksum)):
                entries[lineage_key(lineage.ordinal, field)] = value_to_text(
                    OptionValue.of(value))
        return MetadataDictionary(entries)

    def get_metadata(self) -> MetadataDictionary:
        if self._snapshot is None:
            raise NotCollected("metadata was never collected for this job")
        return self._snapshot
