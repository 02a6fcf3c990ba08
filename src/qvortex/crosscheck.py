"""Independent cross-checks: a finite-difference solver and Bessel zeros.

Nothing in this module shares a discretization with the spectral path. The
constrained minimization is rediscretized from scratch on a uniform radial
grid with trapezoid sums, and the Bessel zero (which fixes the linear-limit
frequency of the spectral problem) is read off the largest eigenvalue of a
tridiagonal matrix built from the order alone. Agreement between the two
solvers is therefore evidence that each discretizes the continuum problem
correctly, not an echo of shared discretization code. What the two share is
the model: its potential U (model.potential, which the discrete action sums
at the grid nodes), and the closed-form shapes of two start profiles, the
ring bump and the thin wall (solver._ring_bump_nodes,
solver._thin_wall_nodes), which each side samples on its own nodes and
judges by its own action.

The finite-difference solver starts from whichever of those two profiles
has the lower discrete action, the thin wall being offered only when its
wall lies inside the disk and it is not zero at every node. It takes
tangent Newton steps from the bordered KKT system of its tridiagonal
Hessian (one banded LU solve per step) and falls back to a step
preconditioned by the Hessian at phi = 0 where the Newton step is
unavailable. Near the minimizer the Newton steps converge quadratically,
so at the benchmark parameters it stops on its discrete minimizer within
tens of steps.

These routines are test- and verification-time tools; the user-facing solve
path never calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import potential
from .solver import _ring_bump_nodes, _thin_wall_nodes, _thin_wall_radius
from .validation import check_positive, check_positive_int, readonly

__all__ = ["FdSolution", "fd_minimize", "bessel_first_zero"]

N_FD_MIN = 100  # fewest grid intervals fd_minimize accepts
_FD_MAX_ITER = 100_000  # step cap of fd_minimize
_BESSEL_ROWS = 60  # size of bessel_first_zero's tridiagonal matrix
# The largest order up to which the _BESSEL_ROWS-row zero stays within 1e-14
# relative of a 600-row one at every order (first miss 1.02e-14 at 4261;
# 4.7e-10 at order 10,000, 3.3e-5 at 100,000).
_BESSEL_ORDER_MAX = 4260


def check_bessel_order(order):
    """order as an int in 0.._BESSEL_ORDER_MAX, the orders bessel_first_zero
    serves; ValueError otherwise."""
    order = check_positive_int("order", order, minimum=0)
    if order > _BESSEL_ORDER_MAX:
        raise ValueError(f"Bessel order {order} exceeds {_BESSEL_ORDER_MAX}, the largest "
                         f"at which the {_BESSEL_ROWS}-row zero holds 1e-14")
    return order


def bessel_first_zero(order):
    """First positive zero j of J_order, order an int in 0.._BESSEL_ORDER_MAX.

    The values 4/j_k^2 over the zeros j_k of J_order are the eigenvalues of a
    symmetric tridiagonal matrix (Ikebe, Math. Comp. 29 (1975) 878; Ball,
    SIAM J. Sci. Comput. 21 (2000) 1458), so j is 2/sqrt of its largest
    eigenvalue. Truncated at _BESSEL_ROWS rows it matches
    scipy.special.jn_zeros to 1.5e-15 relative at every order 0..2000 (the
    rows machine precision needs grow about as sqrt(order): 7 at order 1,
    49 at 2000). Past _BESSEL_ORDER_MAX the truncation error grows quickly,
    so a larger order raises ValueError rather than return a wrong zero.
    """
    order = check_bessel_order(order)
    s = order + 2.0 * np.arange(1, _BESSEL_ROWS + 1)
    off = 1.0 / ((s[:-1] + 1.0) * np.sqrt(s[:-1] * (s[:-1] + 2.0)))
    matrix = np.diag(2.0 / ((s - 1.0) * (s + 1.0))) + np.diag(off, 1) + np.diag(off, -1)
    return 2.0 / math.sqrt(np.linalg.eigvalsh(matrix)[-1])


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


def fd_minimize(params, q0, n_fd=2000, grad_tol=1e-7):
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

    The start is the ring bump or the thin-wall profile
    tanh(rho)^|n| * (1 - tanh(rho - R))/2, R = sqrt(q0/(pi*a_pot)) + |n|,
    whichever has the lower discrete action once retracted onto the
    constraint; a tie keeps the bump. The thin wall is offered only when
    R < p, as a wall outside the disk can start lower and still descend to a
    different stationary point (n=4, p=12, q0=5000 ends at omega_sq 157.27
    from it, 147.29 from the bump), and when it is not zero at every node.

    omega_sq is recovered from the discrete Rayleigh identity
    omega_sq = (4*pi/q0) * (phi . grad I(phi)).
    """
    # imported here so that the solve path, which never calls the oracle,
    # does not pay scipy's import time and memory
    from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded, solve_banded

    q0 = check_positive("q0", q0)
    n_fd = check_positive_int("n_fd", n_fd, minimum=N_FD_MIN)
    grad_tol = check_positive("grad_tol", grad_tol)
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
        ph2 = phi_in * phi_in
        cent_term = 0.5 * np.dot(cent_diag, ph2)
        value = grad_term + cent_term + np.dot(mass_diag, potential(phi_in, params))
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

    n_abs = abs(params.n)
    phi = retract(_ring_bump_nodes(rho_in, n_abs, p))
    f_val, g = action_and_grad(phi)
    thin = _thin_wall_nodes(rho_in, n_abs, q0, a_pot)
    if _thin_wall_radius(n_abs, q0, a_pot) < p and thin.any():
        thin = retract(thin)
        f_thin, g_thin = action_and_grad(thin)
        if f_thin < f_val:
            phi, f_val, g = thin, f_thin, g_thin
    eta = 1.0
    iterations = 0
    converged = False
    for _ in range(_FD_MAX_ITER):
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
            # d . q_grad = 0 = gt . q_grad, so d . g = gt . ab^-1 gt > 0 (ab is SPD)
            d -= (np.dot(d, q_grad) / np.dot(q_grad, q_grad)) * q_grad
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

    # g is the gradient at phi and odd in phi, so phi . g survives the flip
    omega_sq = 4.0 * math.pi * np.dot(phi, g) / q0
    # orient the profile so its largest extremum is positive
    if phi[np.argmax(np.abs(phi))] < 0.0:
        phi = -phi
    full = np.zeros(n_fd + 1)
    full[1:-1] = phi
    return FdSolution(
        grid_points=readonly(rho),
        phi_values=readonly(full),
        omega_sq=float(omega_sq),
        converged=converged,
        iterations=iterations,
    )
