"""Exception types shared across the pipeline."""


class LibsiftError(Exception):
    """Base class for every error this package raises on purpose."""


class ParseError(LibsiftError):
    """Malformed input: bad syntax or wrong field types in a document file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class ValidationError(LibsiftError):
    """Parseable input that violates an invariant of a document, or
    targets and reports that disagree with their manifest."""

    def __init__(self, message, function=None):
        if function is not None:
            message = "function %r: %s" % (function, message)
        super().__init__(message)
        self.function = function


class ConfigError(LibsiftError):
    """Invalid or inconsistent pipeline configuration."""


class EmbeddingError(LibsiftError):
    """Bad vector input: wrong dimension, unknown name, degenerate values."""


class RepositoryError(LibsiftError):
    """Repository construction or persistence failure."""


class RepositoryVersionError(RepositoryError):
    """Repository file written by an incompatible format version."""


class RepositoryChecksumError(RepositoryError):
    """Repository file failed its integrity check (corrupt or truncated)."""
