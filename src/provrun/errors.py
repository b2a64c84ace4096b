"""Exception hierarchy shared across the framework.

The CLI maps these onto exit codes: operational failures exit 1,
verification failures (checksum / lineage / replay mismatches) exit 2.
"""


class ProvrunError(Exception):
    """Base class for every error raised by this package."""


# --- options language ------------------------------------------------------

class OptionsError(ProvrunError):
    pass


class OptionsSyntaxError(OptionsError):
    """Parse failure with a 1-based line and column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(message)
        self.line = line
        self.column = column

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.args[0]}"


class InvalidOptionValue(OptionsError):
    """Value outside the closed domain (non-finite float, bad list, ...)."""


# --- job configuration and lifecycle ---------------------------------------

class ConfigurationError(ProvrunError):
    pass


class UnknownComponent(ConfigurationError):
    pass


class DuplicateComponent(ConfigurationError):
    pass


class UnknownProperty(ConfigurationError):
    pass


class KindMismatch(ConfigurationError):
    pass


class UnknownTool(ConfigurationError):
    pass


class InvalidConfiguration(ConfigurationError):
    """Config that parses but contradicts itself or a reserved rule."""


class AlgorithmFailure(ProvrunError):
    """An algorithm aborted the event loop; finalize still runs."""


class NotCollected(ProvrunError):
    """Metadata requested before the capture ran."""


# --- input lineage ----------------------------------------------------------

class LineageError(ProvrunError):
    pass


class LineageMissing(LineageError):
    """A declared input file no longer exists."""


class LineageMismatch(LineageError):
    """A declared input exists but its content checksum differs."""


# --- container file format --------------------------------------------------

class ContainerError(ProvrunError):
    pass


class BadMagic(ContainerError):
    pass


class UnsupportedVersion(ContainerError):
    pass


class ChecksumMismatch(ContainerError):
    pass


class UnknownBlock(ContainerError):
    pass


class DuplicateBlock(ContainerError):
    pass


class ReservedNameMisuse(ContainerError):
    """A raw `info` block was given; the writer emits that block itself."""


class MissingInfo(ContainerError):
    """Container carries no `info` block (provenance was not recorded)."""


class CorruptContainer(ContainerError):
    """Structurally invalid container (truncated, bad offsets, ...)."""


class WriteFailure(ContainerError):
    """I/O error while writing an output file (a container or an export)."""
