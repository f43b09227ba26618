"""Exception types shared across the package."""


class RadspoofError(Exception):
    """Base class for all package errors."""


class ConfigurationError(RadspoofError):
    """A config value is out of range or names an unknown option."""


class InvalidInputError(RadspoofError):
    """An operation received data violating its preconditions."""


class ManifestParseError(RadspoofError):
    """A manifest or score line could not be parsed."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


class ValidationError(RadspoofError):
    """Records violate an invariant (e.g. duplicate ids)."""


class FormatError(RadspoofError):
    """A file has a bad magic, version, shape, checksum or field."""


class FeatureLoadError(RadspoofError):
    """An external or cached feature file is missing or incompatible."""


class CacheCorruptionError(RadspoofError):
    """A cached feature file exists but fails validation."""


class StoreBuildError(RadspoofError):
    """A vector store could not be built from the given inputs."""


class StoreNotFoundError(RadspoofError, FileNotFoundError):
    """No persisted vector store exists at the given directory."""


class CheckpointNotFoundError(RadspoofError, FileNotFoundError):
    """No checkpoint file exists at the given path."""


class AudioNotFoundError(RadspoofError, FileNotFoundError):
    """No audio file exists at the given path."""


class QueryError(RadspoofError):
    """A retrieval query is malformed (e.g. dimension mismatch)."""


class IncompatibilityError(RadspoofError):
    """Persisted state does not match the configured encoder."""


class MetricUndefinedError(RadspoofError):
    """A metric has no defined value for the given inputs."""


class GradCheckError(RadspoofError):
    """Gradient checking hit a non-finite value."""
