"""Exception types shared across the package."""


class LoopnetError(Exception):
    """Base class for all package-specific errors."""


class InvalidRankError(LoopnetError, ValueError):
    """Rank parameter outside the supported range (su(n) needs n >= 2)."""


class AlgebraMismatchError(LoopnetError, ValueError):
    """Operands tagged with incompatible algebras, or living on different
    truncated spaces or grids."""


class NumericError(LoopnetError, ValueError):
    """Non-finite or otherwise unusable numeric input."""


class NormDivergedError(LoopnetError, ValueError):
    """A Sobolev norm diverges for the declared coefficient decay."""


class ResolutionError(LoopnetError, ValueError):
    """Grid too coarse: Fourier tail mass above the guard mode is too large.

    Carries ``suggested_n``, the next sample count to retry with.
    """

    def __init__(self, message, suggested_n):
        super().__init__(message)
        self.suggested_n = suggested_n


class NotSplittableError(LoopnetError, ValueError):
    """Loop fails the value/derivative conditions at the requested cut points.

    ``residuals`` maps each cut angle to its (value, derivative) residual pair.
    """

    def __init__(self, message, residuals):
        super().__init__(message)
        self.residuals = residuals


class VerificationError(LoopnetError, RuntimeError):
    """An internal cross-check (ODE comparison, finite differences) failed.

    Carries ``residual``, the worst observed deviation.
    """

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class WindowError(LoopnetError, ValueError):
    """Requested Fourier mode lies outside the truncation window."""


class CapacityError(LoopnetError, ValueError):
    """A state-space dimension, occupation mask, alcove box or su(n) basis
    exceeds its limit.

    Carries ``estimate``, the size requested in the unit of the limit it
    exceeds: states, bits, coordinates or bytes.
    """

    def __init__(self, message, estimate):
        super().__init__(message)
        self.estimate = estimate


class UnsupportedAlgebraError(LoopnetError, ValueError):
    """Operation needs explicit root data, available for type A only."""


class CompositionUnsupportedError(LoopnetError, ValueError):
    """Twisted-path composition outside the common-torus / central-jump cases."""


class AccuracyError(LoopnetError, RuntimeError):
    """Adaptive quadrature could not reach the target tolerance.

    Carries ``estimate``, the best value achieved.
    """

    def __init__(self, message, estimate):
        super().__init__(message)
        self.estimate = estimate


class ConfigError(LoopnetError, ValueError):
    """Strict scenario parsing failed.  Carries a JSON pointer to the offender."""

    def __init__(self, message, pointer=""):
        super().__init__(f"{pointer}: {message}" if pointer else message)
        self.pointer = pointer
