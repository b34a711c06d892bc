"""Exception hierarchy: one class per exit code.

Every error raised on purpose by this package derives from
:class:`PhotonPressureError`, so callers can catch one base class.  Each
subclass carries the CLI exit code and the label of its message line, so the
exit-code table lives here and nowhere else.
"""


class PhotonPressureError(Exception):
    """Base class for all errors raised by this package; never raised itself."""

    exit_code: int
    label: str


class ConfigError(PhotonPressureError, ValueError):
    """Invalid run configuration (unknown preset, bad key, axis collision)."""

    exit_code = 2
    label = "configuration error"


class TraceFormatError(PhotonPressureError, ValueError):
    """A trace or parameter file failed to parse; ``line`` is the 1-based
    line number, when one is known."""

    exit_code = 3
    label = "parse error"

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DomainError(PhotonPressureError, ValueError):
    """Physically invalid or unusable input: a non-positive rate, a flux bias beyond
    the arch, C >= 1, data that cannot constrain a fit, too little baseline."""

    exit_code = 4
    label = "domain error"


class ConvergenceError(PhotonPressureError):
    """A fit did not converge and the caller required convergence."""

    exit_code = 5
    label = "fit error"
