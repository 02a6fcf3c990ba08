"""Independent cross-checks: a finite-difference solver and Bessel zeros.

Nothing in this module shares a discretization with the spectral path. The
constrained minimization is rediscretized from scratch on a uniform radial
grid with trapezoid sums, and the Bessel zero (which fixes the linear-limit
frequency of the spectral problem) is computed from the ascending power
series with plain bisection. Agreement between the two solvers is therefore
evidence about the continuum problem, not about shared code.

The finite-difference solver takes tangent Newton steps from the bordered
KKT system of its tridiagonal Hessian (one banded LU solve per step) and
falls back to a step preconditioned by the Hessian at phi = 0 where the
Newton step is unavailable. Near the minimizer the Newton steps converge
quadratically, so at the benchmark parameters it stops on its discrete
minimizer within tens of steps.

These routines are test- and verification-time tools; the user-facing solve
path never calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .validation import check_positive, check_positive_int, readonly

__all__ = ["FdSolution", "fd_minimize", "bessel_first_zero"]

N_FD_MIN = 100  # fewest grid intervals fd_minimize accepts
BESSEL_ORDER_MAX = 10  # highest order bessel_first_zero accepts


def _bessel_j(order, x):
    """J_order(x) by the ascending series; adequate for x below ~20."""
    half = 0.5 * x
    term = half**order / math.factorial(order)
    total = term
    for k in range(1, 80):
        term *= -(half * half) / (k * (order + k))
        total += term
        if abs(term) < 1e-18 * (abs(total) + 1e-30) and k > half:
            break
    return total


def bessel_first_zero(order):
    """First positive zero of the Bessel function J_order, order <= BESSEL_ORDER_MAX.

    Brackets the zero by stepping outward from the origin (J_order is
    positive before its first zero), then bisects to 1e-8 absolute.
    """
    order = int(order)
    if not 0 <= order <= BESSEL_ORDER_MAX:
        raise ValueError(f"order must be in 0..{BESSEL_ORDER_MAX}, got {order}")
    step = 0.25
    lo = 0.5
    f_lo = _bessel_j(order, lo)
    hi = lo
    for _ in range(200):
        hi = hi + step
        f_hi = _bessel_j(order, hi)
        if f_lo > 0.0 and f_hi <= 0.0:
            break
        lo, f_lo = hi, f_hi
    else:  # pragma: no cover - unreachable for order <= 10
        raise RuntimeError(f"failed to bracket first zero of J_{order}")
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if _bessel_j(order, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class FdSolution:
    """Result of the finite-difference constrained minimization.

    grid_points : uniform radii 0..p inclusive (n_fd + 1 values)
    phi_values  : profile samples; exactly zero at both endpoints
    omega_sq    : frequency recovered from the discrete Rayleigh identity
    converged   : whether the tangent-gradient tolerance was met
    iterations  : accepted descent steps
    """

    grid_points: np.ndarray
    phi_values: np.ndarray
    omega_sq: float
    converged: bool
    iterations: int


def _ring_bump(rho, n_abs, p):
    scale = p / 4.0
    return rho**n_abs * (p - rho) * np.exp(-(((rho - scale) / scale) ** 2))


def fd_minimize(params, q0, n_fd=2000, grad_tol=1e-7, max_iter=100_000):
    """Minimize the trapezoid-discretized action at prescribed norm q0.

    The action

        I(phi) = int 1/2*(rho*phi'^2 + n^2*phi^2/rho) + lam*rho*(phi^6
                 - a_pot*phi^4 + b*phi^2) drho

    is discretized with interval-midpoint sums for the gradient term and
    trapezoid sums for everything else; the constraint 4*pi*trap(rho*phi^2)
    = q0 defines an ellipsoid in the nodal values. Each direction is the
    tangent Newton step of the bordered KKT system (Nocedal & Wright,
    Numerical Optimization, 2006, sec. 18.1): the Hessian of the Lagrangian
    is tridiagonal, so the step costs one banded LU solve with two
    right-hand sides, and its line search starts at the full step. Where
    that matrix is singular or the step is not a descent direction (far
    from the minimizer it can be indefinite), the step falls back to the
    tangent gradient preconditioned by the Hessian at phi = 0 (tridiagonal
    SPD, Cholesky-factored once); plain gradient descent would crawl under
    the uniform grid's stiffness. Directions only steer the Armijo
    search along the retraction, so the constrained stationary points do
    not depend on them.

    omega_sq is recovered from the discrete Rayleigh identity
    omega_sq = (4*pi/q0) * (phi . grad I(phi)).
    """
    # imported here so that the solve path, which never calls the oracle,
    # does not pay scipy's import time and memory
    from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded, solve_banded

    q0 = check_positive("q0", q0)
    n_fd = check_positive_int("n_fd", n_fd, minimum=N_FD_MIN)
    grad_tol = check_positive("grad_tol", grad_tol)
    max_iter = check_positive_int("max_iter", max_iter)
    p, n2, lam, a_pot, b = params.p, params.n**2, params.lam, params.a_pot, params.b

    h = p / n_fd
    rho = np.linspace(0.0, p, n_fd + 1)
    rho_in = rho[1:-1]
    rho_mid = 0.5 * (rho[:-1] + rho[1:])
    w_trap = np.full(n_fd + 1, h)
    w_trap[0] = w_trap[-1] = 0.5 * h
    w_in = w_trap[1:-1]

    # constraint Q(phi) = sum(c * phi_in^2); endpoints carry phi = 0
    c_con = 4.0 * math.pi * w_in * rho_in

    # tridiagonal stiffness on interior nodes from interval midpoints
    k_diag = (rho_mid[:-1] + rho_mid[1:]) / h
    k_off = -rho_mid[1:-1] / h

    cent_diag = n2 * w_in / rho_in
    mass_diag = w_in * rho_in

    # Hessian of the action at phi = 0: stiffness + centrifugal + 2*lam*b
    # * mass, tridiagonal SPD. Factored once, it preconditions the fallback
    # step; the Newton step adds the nonlinear and multiplier terms to it.
    lin_diag = k_diag + cent_diag + 2.0 * lam * b * mass_diag
    ab = np.zeros((2, n_fd - 1))
    ab[1] = lin_diag
    ab[0, 1:] = k_off
    cho = (cholesky_banded(ab), False)
    ab_kkt = np.zeros((3, n_fd - 1))
    ab_kkt[0, 1:] = k_off
    ab_kkt[2, :-1] = k_off

    def action_and_grad(phi_in):
        dphi = np.diff(np.concatenate(([0.0], phi_in, [0.0]))) / h
        grad_term = 0.5 * h * np.dot(rho_mid, dphi * dphi)
        cent_term = 0.5 * np.dot(cent_diag, phi_in * phi_in)
        ph2 = phi_in * phi_in
        pot = lam * np.dot(mass_diag, ph2 * (ph2 * ph2 - a_pot * ph2 + b))
        value = grad_term + cent_term + pot
        g = np.empty_like(phi_in)
        g[:] = k_diag * phi_in
        g[:-1] += k_off * phi_in[1:]
        g[1:] += k_off * phi_in[:-1]
        g += cent_diag * phi_in
        g += mass_diag * lam * phi_in * (6.0 * ph2 * ph2 - 4.0 * a_pot * ph2 + 2.0 * b)
        return value, g

    def retract(phi_in):
        return phi_in * math.sqrt(q0 / np.dot(c_con, phi_in * phi_in))

    def newton_step(phi_in, mu, u, gt):
        """Tangent Newton step from the bordered KKT system, or None.

        B = Hessian of the action - mu * diag(c), with the multiplier
        estimate mu and border u = c*phi. The step solves B d = gt - nu*u
        with u . d = 0, i.e. d = y1 - (u.y1 / u.y2) * y2 for
        B [y1, y2] = [gt, u]. B may be indefinite away from the minimizer,
        so it is LU-solved; None when B is singular.
        """
        ph2 = phi_in * phi_in
        ab_kkt[1] = (lin_diag - mu * c_con
                     + mass_diag * lam * ph2 * (30.0 * ph2 - 12.0 * a_pot))
        try:
            y = solve_banded((1, 1), ab_kkt, np.column_stack((gt, u)))
        except LinAlgError:
            return None
        return y[:, 0] - (np.dot(u, y[:, 0]) / np.dot(u, y[:, 1])) * y[:, 1]

    phi = retract(_ring_bump(rho_in, abs(params.n), p))
    f_val, g = action_and_grad(phi)
    eta = 1.0
    iterations = 0
    converged = False
    for _ in range(max_iter):
        q_grad = c_con * phi  # half of the constraint gradient; direction only
        mu = np.dot(g, q_grad) / np.dot(q_grad, q_grad)  # multiplier estimate
        gt = g - mu * q_grad
        gt_norm = np.linalg.norm(gt)
        if gt_norm <= grad_tol * max(1.0, np.linalg.norm(g)):
            converged = True
            break
        d = newton_step(phi, mu, q_grad, gt)
        if d is not None and np.dot(d, g) > 0.0:
            eta = 1.0
        else:  # B singular or the step not a descent direction; fall back
            d = cho_solve_banded(cho, gt)
            d -= (np.dot(d, q_grad) / np.dot(q_grad, q_grad)) * q_grad
            if np.dot(d, g) <= 0.0:  # preconditioned direction degenerate
                d = gt
            eta = min(eta * 2.0, 1e6)
        slope = np.dot(d, g)
        accepted = False
        while eta > 1e-18:
            cand = retract(phi - eta * d)
            f_new, g_new = action_and_grad(cand)
            if f_new <= f_val - 1e-4 * eta * slope:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
        phi, f_val, g = cand, f_new, g_new
        iterations += 1

    # orient the profile so its largest extremum is positive
    if phi[np.argmax(np.abs(phi))] < 0.0:
        phi = -phi

    _, g = action_and_grad(phi)
    omega_sq = 4.0 * math.pi * np.dot(phi, g) / q0
    full = np.zeros(n_fd + 1)
    full[1:-1] = phi
    return FdSolution(
        grid_points=readonly(rho),
        phi_values=readonly(full),
        omega_sq=float(omega_sq),
        converged=converged,
        iterations=iterations,
    )
