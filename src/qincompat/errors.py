"""Exception types shared across the package."""


class QincompatError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(QincompatError):
    """Operands have incompatible dimensions."""


class NotHermitianError(QincompatError):
    """A matrix expected to be Hermitian is not, within tolerance."""


class ConvergenceError(QincompatError):
    """An iterative numerical routine failed to converge."""


class DegenerateSpectrumError(QincompatError):
    """An observable has near-degenerate eigenvalues, so its eigenbasis is ambiguous."""


class NotPrimeError(QincompatError):
    """The unbiased-bases construction requires a prime dimension."""


class TooManyBasesError(QincompatError):
    """Requested more mutually unbiased bases than the dimension supports."""


class OutcomeCountMismatchError(QincompatError):
    """A reconstruction map does not match the measurement's outcome count."""


class NonMonotoneError(QincompatError):
    """The see-saw fidelity decreased beyond tolerance; internal bug guard."""


class SingularUpdateError(QincompatError):
    """The measurement update operator lost rank and cannot continue."""


class BoundViolationError(QincompatError):
    """A computed value violated a certified bound; internal bug guard."""


class InputFormatError(QincompatError):
    """An input document failed parsing or validation."""
