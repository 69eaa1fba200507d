"""Exception and warning types shared across the package."""


class GkpStabError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(GkpStabError, ValueError):
    """Requested Fock truncation is too small or otherwise invalid."""


class ShapeMismatchError(GkpStabError, ValueError):
    """Operands do not share the required matrix shape."""


class InvalidInputError(GkpStabError, ValueError):
    """Non-finite or otherwise malformed numerical input."""


class SymmetryError(GkpStabError, ValueError):
    """Channel set lacks the π/2 rotation symmetry of the exponential integrator."""


class OperatorOverflowError(GkpStabError, ArithmeticError):
    """Matrix exponential (or a derived operator) overflowed double precision."""


class DegenerateGapError(GkpStabError, RuntimeError):
    """Kernel candidates are not separated from the rest of the spectrum."""


class StepSizeUnderflowError(GkpStabError, RuntimeError):
    """Adaptive integrator driven below its minimum step (stiffness)."""


class ResourceLimitError(GkpStabError, RuntimeError):
    """Requested problem size exceeds the configured desk-scale maximum."""


class PositivityWarning(UserWarning):
    """Density matrix acquired an eigenvalue below the positivity tolerance."""


class ConvergenceWarning(UserWarning):
    """Residual still above tolerance at the integration horizon."""
