"""Exception taxonomy shared by all modules."""

from typing import Optional


class EulerLabError(Exception):
    """Base class for all library errors."""


class ConfigurationError(EulerLabError):
    """A parameter violates a documented precondition."""


class GridMismatchError(EulerLabError):
    """Operands live on different grids."""


class StepSizeError(EulerLabError):
    """Time step violates the CFL bound: at ``step``, which starts at
    ``time``, when the integrator knows them."""

    def __init__(self, message: str, admissible_dt: float,
                 step: Optional[int] = None, time: Optional[float] = None):
        super().__init__(message)
        self.admissible_dt = admissible_dt
        self.step = step
        self.time = time


class SolverAbort(EulerLabError):
    """Integration aborted (non-finite state, nonpositive density, ...)."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class PoissonConvergenceError(EulerLabError):
    """Variable-coefficient pressure solve failed to converge."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
