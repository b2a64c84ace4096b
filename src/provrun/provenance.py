"""The provenance capture service.

Started with the other services, where it refuses `Enabled = false`. It
captures from finalize only, after every option has been applied, so the
snapshot sees the fully resolved configuration: for each component of the
job's name table (retrieved tools included), every declared property is
recorded with its resolved typed value, whether it was set explicitly or
left at its default. Input lineage (path + checksum of each consumed
container) rides along under the reserved lineage keys of
`services.lineage_key`. The dictionary never contains wall-clock times or
host identity, which is what makes replay a byte-level fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InvalidConfiguration, NotCollected
from .metadata import MetadataDictionary
from .options import Kind, OptionKey, OptionsSet
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
        if self.value("Enabled") is False:
            raise InvalidConfiguration(
                "MetaDataSvc.Enabled = false contradicts its presence in "
                "ApplicationMgr.Services")

    def capture(self, job) -> None:
        """Collect once; calling again is a no-op (the snapshot is frozen).

        Called from finalize only: earlier, only part of the configuration
        would have been applied and the snapshot would lose information.
        """
        if self._snapshot is None:
            self._snapshot = self.collect_data(job)

    def collect_data(self, job) -> MetadataDictionary:
        snapshot = OptionsSet()
        for component in job.components.values():
            for spec in component.specs.values():
                snapshot.set(OptionKey(component.name, spec.name), spec.applied)
        for lineage in job.lineage:
            snapshot.set(lineage_key(lineage.ordinal, "Path"), lineage.path)
            snapshot.set(lineage_key(lineage.ordinal, "Checksum"), lineage.checksum)
        return MetadataDictionary(snapshot)

    def get_metadata(self) -> MetadataDictionary:
        if self._snapshot is None:
            raise NotCollected("metadata was never collected for this job")
        return self._snapshot
