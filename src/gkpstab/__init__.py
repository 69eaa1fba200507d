"""Dissipative stabilization of finite-energy grid states.

Library layout:
  fock      truncated-Fock operator algebra (ladders, quadratures, expm)
  hermite   orthonormal oscillator eigenfunctions on a grid
  codes     grid-code objects: dissipators, Lyapunov operator, codewords, rates
  lindblad  master-equation integration, logical operators, Bloch coordinates
  analysis  closed-form identity checks and the decay / error-rate experiments
  cli       reproducible experiment runner (`gkpstab` entry point)
"""

from .codes import (
    ETA_QUBIT,
    ETA_SENSOR,
    GkpCode,
    GkpParams,
    build_code,
    build_codewords,
    build_conjugated_quadratures,
    build_dissipators,
    build_lyapunov,
    convergence_rate,
    default_dim,
    kappa,
    kappa_asymptote,
    kernel_codewords,
    logical_basis,
    mean_photon_number,
)
from .errors import (
    ConvergenceWarning,
    DegenerateGapError,
    DimensionError,
    GkpStabError,
    InvalidInputError,
    OperatorOverflowError,
    PositivityWarning,
    ResourceLimitError,
    ShapeMismatchError,
    StepSizeUnderflowError,
)
from .fock import (
    interior_block,
    interior_margin,
    make_ladder,
    make_quadratures,
    matrix_exponential,
)
from .lindblad import (
    LindbladModel,
    LogicalOperators,
    ObservableSpec,
    Trajectory,
    adjoint_rhs,
    bloch_coordinates,
    evolve,
    lindblad_rhs,
    logical_operators,
    pure_loss_trajectory,
    stabilizer_model,
)

__version__ = "0.1.0"
