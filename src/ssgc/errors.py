"""Exception types shared across the package."""

__all__ = ["PreconditionError", "ConvergenceError", "InfeasibleDesignError"]


class PreconditionError(ValueError):
    """A model or argument violates a documented precondition.

    Raised, for example, when a Riccati solve is attempted on a model whose
    noise covariance is not positive definite, or when a non-stationary model
    is passed to an operation that requires stationarity.
    """


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge within its iteration budget."""


class InfeasibleDesignError(ValueError):
    """Requested design parameters admit no real model of the target form."""
