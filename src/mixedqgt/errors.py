"""Exception types shared across the package.

Every exception carries a human-readable message naming the violated
condition and, where meaningful, the measured violation magnitude.
"""


class MixedQGTError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(MixedQGTError, ValueError):
    """An input failed a structural invariant."""


class NotHermitianError(ValidationError):
    pass


class TraceNotOneError(ValidationError):
    pass


class NotPSDError(ValidationError):
    pass


class DimensionMismatchError(ValidationError):
    pass


class NotUnitaryError(ValidationError):
    pass


class RankDeficientError(MixedQGTError, ValueError):
    """A state is too close to rank deficiency for the requested operation."""


class DegenerateSpectrumError(MixedQGTError, ValueError):
    """Eigenvalue gap too small for a convention-dependent basis derivative."""


class NonHermitianDerivativeError(ValidationError):
    pass


class InconsistentStencilError(MixedQGTError, ValueError):
    """A finite-difference stencil that fails: its connection samples jump
    between gauges, or its step vanishes against a coordinate."""


class AngleOutOfRangeError(MixedQGTError, ValueError):
    """Bures angle outside the solvable range (too small or too close to pi/2)."""


class NotQubitError(ValidationError):
    pass


class NotClosedError(MixedQGTError, ValueError):
    """A loop's endpoints do not coincide on the base manifold."""


class CoarseGridError(MixedQGTError, ValueError):
    """Adjacent samples of a lift overlap too little to integrate reliably."""


class OutOfDomainError(MixedQGTError, ValueError):
    pass


class NoAnalyticDerivativesError(MixedQGTError, ValueError):
    pass


class SchemaError(MixedQGTError, ValueError):
    """A model or matrix file does not match the expected JSON layout."""


class InvalidDensityAtNodeError(ValidationError):
    """A grid-model node fails a density-matrix invariant; names the node."""
