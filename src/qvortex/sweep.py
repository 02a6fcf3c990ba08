"""Parameter sweeps over the prescribed norm and the winding number.

Each sweep returns one VortexSolution per input value, in input order.
Both sweeps are continuations (Allgower & Georg, Numerical Continuation
Methods, 1990) run by one loop: each row after the first starts from the
last converged minimizer rescaled onto its sphere, which keeps the profile
shape and cuts iteration counts sharply. Sweeps over the winding number n
reuse a single basis, because both Galerkin matrices are n-independent.
"""

from __future__ import annotations

from dataclasses import replace

from .solver import minimize_on_sphere
from .validation import check_positive

__all__ = ["sweep_q0", "sweep_n"]


def _continue(basis, rows, config):
    """Solve the (params, q0) rows in order, from config.start_coeffs first
    and then from the last converged row; unconverged rows are recorded."""
    solutions = []
    for params, q0 in rows:
        sol = minimize_on_sphere(basis, params, replace(config, q0=q0))
        solutions.append(sol)
        if sol.converged:
            config = replace(config, start_coeffs=tuple(sol.coeffs))
    return solutions


def sweep_q0(params, basis, q0_list, config):
    """Solve at each q0 in ascending order; one VortexSolution per value."""
    q0_list = [check_positive("q0", q) for q in q0_list]
    if any(b <= a for a, b in zip(q0_list, q0_list[1:])):
        raise ValueError(f"q0_list must be strictly ascending, got {q0_list}")
    return _continue(basis, [(params, q0) for q0 in q0_list], config)


def sweep_n(params, basis, n_list, config):
    """Solve at config.q0 for each winding number in n_list, in its order.

    Each row continues from the one before, so the order of n_list matters.
    One SpectralBasis serves every row: K and C carry no n dependence, the
    n^2 multiplier is applied when the functional is assembled.
    """
    rows = [(replace(params, n=n), config.q0) for n in n_list]
    return _continue(basis, rows, config)
