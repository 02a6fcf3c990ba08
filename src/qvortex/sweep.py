"""Parameter sweeps over the prescribed norm and the winding number.

Each sweep returns one VortexSolution per input value, in input order.
Sweeps over the prescribed norm q0 are warm-started: each solve begins from
the previous converged minimizer rescaled onto the new sphere, which
preserves the profile shape and cuts iteration counts sharply in the
flat-top regime. Sweeps over the winding number n reuse a single basis,
because both Galerkin matrices are n-independent; only the n^2 multiplier
of the centrifugal matrix changes between rows.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .solver import minimize_on_sphere
from .validation import check_positive

__all__ = ["sweep_q0", "sweep_n"]


def sweep_q0(params, basis, q0_list, config):
    """Solve at each q0 in ascending order; one VortexSolution per value.

    The first row starts from config; each later row starts from the last
    converged minimizer rescaled onto its sphere. Per-row non-convergence
    is recorded in the solution and the sweep continues.
    """
    q0_list = [check_positive("q0", q) for q in q0_list]
    if any(b <= a for a, b in zip(q0_list, q0_list[1:])):
        raise ValueError(f"q0_list must be strictly ascending, got {q0_list}")
    solutions = []
    warm = None
    for q0 in q0_list:
        cfg = replace(config, q0=q0)
        if warm is not None:
            coeffs, warm_q0 = warm
            cfg = replace(cfg, start_coeffs=tuple(coeffs * math.sqrt(q0 / warm_q0)))
        sol = minimize_on_sphere(basis, params, cfg)
        solutions.append(sol)
        if sol.converged:
            warm = (sol.coeffs, q0)
    return solutions


def sweep_n(params, basis, n_list, q0, config):
    """Solve at fixed q0 for each winding number in n_list.

    One SpectralBasis serves every row: K and C carry no n dependence, the
    n^2 multiplier is applied when the functional is assembled.
    """
    config = replace(config, q0=check_positive("q0", q0))
    return [
        minimize_on_sphere(basis, replace(params, n=int(n)), config) for n in n_list
    ]
