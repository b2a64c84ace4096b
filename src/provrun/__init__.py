"""provrun: a miniature data-processing framework whose output containers
embed the fully resolved job configuration, so a dataset alone is enough to
inspect, diff, and byte-identically reproduce the job that made it."""

from .container import ContainerReader, extract_info, read_block, write_container
from .core import (
    ApplicationMgr,
    Catalogue,
    EventRecord,
    Job,
    JobReport,
    PhaseStatus,
    build_job,
    run_job,
    standard_catalogue,
)
from .diff import DiffReport, diff_dictionaries
from .errors import ProvrunError
from .metadata import MetadataDictionary
from .options import (
    Kind,
    KindSpec,
    OptionKey,
    OptionsSet,
    OptionValue,
    emit_canonical,
    merge,
    parse_options,
    parse_value,
    value_to_text,
)
from .provenance import InputLineage, MetaDataSvc

__version__ = "0.1.0"

__all__ = [
    "ApplicationMgr",
    "Catalogue",
    "ContainerReader",
    "DiffReport",
    "EventRecord",
    "InputLineage",
    "Job",
    "JobReport",
    "Kind",
    "KindSpec",
    "MetaDataSvc",
    "MetadataDictionary",
    "OptionKey",
    "OptionValue",
    "OptionsSet",
    "PhaseStatus",
    "ProvrunError",
    "build_job",
    "diff_dictionaries",
    "emit_canonical",
    "extract_info",
    "merge",
    "parse_options",
    "parse_value",
    "read_block",
    "run_job",
    "standard_catalogue",
    "value_to_text",
    "write_container",
]
