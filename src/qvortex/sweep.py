"""Parameter sweeps over the prescribed norm and the winding number.

Each sweep returns one VortexSolution per input value, in input order.
Both sweeps are continuations (Allgower & Georg, Numerical Continuation
Methods, 1990) run by one loop: each row after the first is offered a
start built from the last converged minimizer c as start_coeffs, which
keeps the profile shape and cuts iteration counts sharply. Where the next
row's q0 differs, as in every norm sweep, the start is an Euler predictor
along the branch tangent c' = dc/dq0 (solver.branch_tangent), linear in
log q0: c + q0*c'*ln(q0_next/q0). A winding sweep, or a row whose reduced
Hessian fails Cholesky, offers c itself. The solver rescales the start
onto the row's sphere, compares it with the thin-wall profile at the row's
(n, q0) and descends from the lower F: rescaling a saturated ring onto a
larger sphere lifts its plateau, while the thin wall widens the ring at
the plateau amplitude, so far into the saturation regime the wall wins
(Table 1 takes 29 steps, 58 from the previous row alone). The default
dispersion sweep takes 97 steps; without the solver's refined unit step
it took 99, and 115 from c rescaled and 108 from a secant in log q0.
Sweeps over the winding number n reuse a single basis, because both
Galerkin matrices are n-independent.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .solver import branch_tangent, minimize_on_sphere
from .validation import check_positive

__all__ = ["sweep_q0", "sweep_n"]


def _continue(basis, rows, config):
    """Solve the (params, q0) rows in order, from config.start_coeffs first
    and then from the last converged row, predicted along its branch tangent
    where the next row's q0 differs; unconverged rows are recorded."""
    solutions, start = [], config.start_coeffs
    for k, (params, q0) in enumerate(rows):
        sol = minimize_on_sphere(basis, params, replace(config, q0=q0, start_coeffs=start))
        solutions.append(sol)
        if sol.converged:
            start = sol.coeffs
            q0_next = rows[k + 1][1] if k + 1 < len(rows) else q0
            tangent = branch_tangent(basis, params, start, q0) if q0_next != q0 else None
            if tangent is not None:
                start = start + (q0 * math.log(q0_next / q0)) * tangent
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
