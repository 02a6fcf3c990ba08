"""qvortex: spectral solver for spinning ring solitons (Q-vortices) on a disk.

The package computes radially symmetric profiles phi(rho) of stationary
spinning solutions Phi = phi(rho) * exp(i*omega*t + i*n*theta) of a complex
scalar field theory with sextic self-interaction, confined to a disk of
radius p with Dirichlet boundary conditions. Profiles are found by
minimizing the reduced action over sine series of prescribed reduced norm,
with the squared frequency recovered as the constraint's Lagrange
multiplier; every closed-form bound the model imposes (frequency window,
amplitude ceiling, norm threshold, exponential tail) is available as a
runtime verifier.
"""

from .basis import SpectralBasis, build_basis, evaluate_uniform, evaluate_uniform_derivatives
from .crosscheck import FdSolution, bessel_first_zero, fd_minimize
from .model import (
    ModelParams,
    TheoryBounds,
    decay_rate,
    p_star_bound,
    potential,
    potential_derivative,
    theory_bounds,
)
from .quadrature import QuadratureGrid, build_grid
from .solver import (
    PROFILE_POINTS,
    SolveConfig,
    VortexSolution,
    check_decay_envelope,
    minimize_on_sphere,
    residual_error,
)
from .sweep import sweep_n, sweep_q0

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "TheoryBounds",
    "potential",
    "potential_derivative",
    "theory_bounds",
    "decay_rate",
    "p_star_bound",
    "QuadratureGrid",
    "build_grid",
    "SpectralBasis",
    "build_basis",
    "evaluate_uniform",
    "evaluate_uniform_derivatives",
    "SolveConfig",
    "VortexSolution",
    "PROFILE_POINTS",
    "minimize_on_sphere",
    "residual_error",
    "check_decay_envelope",
    "FdSolution",
    "fd_minimize",
    "bessel_first_zero",
    "sweep_q0",
    "sweep_n",
    "__version__",
]
