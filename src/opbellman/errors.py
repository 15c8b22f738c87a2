"""Exception types shared across the package."""


class OpBellmanError(Exception):
    """Base class for all package-specific errors.

    ``where`` says which matrices of a stack an operation failed on (a bool
    per matrix); True when the failure is not tied to particular matrices.
    """

    def __init__(self, *args, where=True):
        super().__init__(*args)
        self.where = where


class ShapeError(OpBellmanError, ValueError):
    """Operand dimensions are incompatible."""


class DomainError(OpBellmanError, ValueError):
    """An eigenvalue or scalar argument falls outside a function's domain."""


class ConditioningError(OpBellmanError, ValueError):
    """A matrix is too close to singular for the requested operation."""


class EigendecompositionError(OpBellmanError, RuntimeError):
    """The eigensolver failed to converge."""


class DegenerateIntervalError(OpBellmanError, ValueError):
    """The interval [m, M] is too short for a chord to be meaningful."""


class UnboundedRatioError(OpBellmanError, ValueError):
    """The chord vanishes inside [m, M]; the ratio f/chord is unbounded."""


class ParameterError(OpBellmanError, ValueError):
    """A numeric parameter is outside its supported range."""


class HypothesisError(OpBellmanError, ValueError):
    """Inputs violate the hypothesis of a closed-form constant
    (``constants.t_star``).  A generator never raises it for a trial whose
    hypothesis fails: it marks the trial rejected in what it returns."""


class UnimodalityError(OpBellmanError, RuntimeError):
    """The refined maximum fell below the raw grid maximum."""


class WitnessFormatError(OpBellmanError, ValueError):
    """A witness or config document does not match the expected schema."""
