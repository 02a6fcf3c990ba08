"""Constrained minimization on the coefficient sphere and its diagnostics.

With the orthonormal basis of `qvortex.basis`, a profile phi = sum a_j psi_j
has prescribed norm Q0 exactly when |a|^2 = Q0, so the variational problem
becomes: minimize over the sphere of radius sqrt(Q0) the function

    F(a) = 1/2 * a.(K + n^2 C).a + lam*b*Q0/(4*pi)
           + lam * int rho*(phi^6 - a_pot*phi^4) drho.

The quadratic coefficient of the potential contributes only the constant
lam*b*Q0/(4*pi) because of the constraint, so it never moves the minimizer.
The minimizer is computed by Riemannian Newton steps on the KKT system with
an Armijo line-search safeguard. Each step solves the bordered system

    [[H - theta*I, a], [a^T, 0]] [d; nu] = [grad_t F; 0],

with H the exact Hessian of F and theta = a.grad F / Q0 the current
multiplier estimate, for a tangent direction d. The block H - theta*I,
shifted by a multiple of a.a^T that leaves it unchanged on the tangent
space, is factored by Cholesky. When that fails the reduced Hessian is not
positive definite (Newton could head for a saddle, such as an excited
state), and the step is the eigen-modified Newton step instead: the reduced
Hessian's eigenvalues are replaced by their absolute values, which keeps
the curvature information and turns the saddle's negative directions into
descent directions. Either way Armijo backtracking from the full step picks
the step length, and the iterate is retracted by rescaling back to radius
sqrt(Q0) (an exact retraction).

The squared frequency is the Lagrange multiplier of the norm constraint:

    omega^2 = 4*pi*theta + 2*lam*b,

with theta = a.grad F(a)/Q0 the multiplier estimate of the Newton step,
taken at the solution (grad F = theta*a at a stationary point on the
sphere). The potential's quadratic term, which F carries only as the
constant lam*b*Q0/(4*pi), contributes the 2*lam*b.

Solution quality is reported as the residual of the radial field equation,

    RE = (1/p) * sqrt( int (phi_rhorho + phi_rho/rho - n^2 phi/rho^2
                            + omega^2 phi - U'(phi))^2 drho ),

evaluated with analytic derivatives on the shared quadrature grid. For
|n| >= 2 the integrand grows like 1/rho^2 toward the origin because sine
modes vanish only linearly there; the grid has no node at rho = 0 and the
reported RE is understood as this grid-discretized value. The first panel's
contribution can be split out to expose that origin sensitivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import evaluate
from .model import decay_edge, decay_rate, default_decay_p0, potential_derivative, theory_bounds
from .validation import check_coeffs, check_positive, check_positive_int, readonly

__all__ = [
    "SolveConfig",
    "VortexSolution",
    "PROFILE_POINTS",
    "minimize_on_sphere",
    "residual_error",
    "residual_error_split",
    "dense_profile",
    "check_decay_envelope",
    "check_solution",
    "gradient_fd_check",
]

PROFILE_POINTS = 2001

_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5
_ETA_MIN = 1e-18


@dataclass(frozen=True)
class SolveConfig:
    """Options for one constrained solve.

    q0           : prescribed reduced norm, > 0
    grad_tol     : stop when |tangent grad| <= grad_tol * max(1, |grad|)
    max_iter     : iteration cap per descent run
    start_coeffs : starting coefficient vector, rescaled onto the sphere;
                   None (default) starts from the ring bump
                   rho^|n| * (p - rho) * exp(-((rho - p/4) / (p/4))^2)
    restarts     : extra descent runs, each from the kept minimizer
                   perturbed by 1% relative noise, lowest F kept;
                   0 (default) runs one descent from the start
    rng_seed     : seed for those perturbations, >= 0
    """

    q0: float
    grad_tol: float = 1e-8
    max_iter: int = 20000
    start_coeffs: tuple | None = None
    restarts: int = 0
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "q0", check_positive("q0", self.q0))
        object.__setattr__(self, "grad_tol", check_positive("grad_tol", self.grad_tol))
        object.__setattr__(self, "max_iter", check_positive_int("max_iter", self.max_iter))
        object.__setattr__(
            self, "restarts", check_positive_int("restarts", self.restarts, minimum=0)
        )
        object.__setattr__(
            self, "rng_seed", check_positive_int("rng_seed", self.rng_seed, minimum=0)
        )
        if self.start_coeffs is not None:
            object.__setattr__(
                self, "start_coeffs", tuple(float(v) for v in self.start_coeffs)
            )


@dataclass(frozen=True)
class VortexSolution:
    """Converged (or best-effort) minimizer and its diagnostics.

    coeffs lie on the sphere |a|^2 = q0 and are sign-normalized so the
    profile is non-negative at its largest extremum. phi_max is taken over a
    dense uniform output grid of PROFILE_POINTS points. grad_norm is the
    final tangent-gradient norm, attached so non-convergence is never a
    silent success.
    """

    coeffs: np.ndarray
    omega_sq: float
    residual_error: float
    phi_max: float
    iterations: int
    converged: bool
    f_value: float
    grad_norm: float


def _residual_on_nodes(coeffs, omega_sq, basis, params):
    a = check_coeffs("coeffs", coeffs, basis.m)
    rho = basis.grid.nodes
    phi = a @ basis.psi_nodes
    dphi = a @ basis.dpsi_nodes
    d2phi = a @ basis.d2psi_nodes
    return (
        d2phi
        + dphi / rho
        - params.n**2 * phi / rho**2
        + omega_sq * phi
        - potential_derivative(phi, params)
    )


def residual_error(coeffs, omega_sq, basis, params):
    """Normalized L2 residual of the field equation on the shared grid."""
    r = _residual_on_nodes(coeffs, omega_sq, basis, params)
    return float(np.sqrt(np.dot(basis.grid.weights, r * r))) / basis.p


def residual_error_split(coeffs, omega_sq, basis, params):
    """(total RE, RE restricted to the first quadrature panel).

    The first-panel share exposes origin sensitivity of the residual metric
    for |n| >= 2, where the integrand behaves like 1/rho^2 near rho = 0.
    """
    r = _residual_on_nodes(coeffs, omega_sq, basis, params)
    w = basis.grid.weights
    total = float(np.sqrt(np.dot(w, r * r))) / basis.p
    k = basis.grid.order_per_panel
    first = float(np.sqrt(np.dot(w[:k], r[:k] ** 2))) / basis.p
    return total, first


def dense_profile(basis, coeffs):
    """Uniform output grid on [0, p] and the profile sampled on it."""
    rho = np.linspace(0.0, basis.p, PROFILE_POINTS)
    return rho, evaluate(basis, coeffs, rho)


def check_decay_envelope(basis, coeffs, omega_sq, params, p0=None):
    """Exponential tail check phi^2 <= (2*a_pot/3)*exp(-sigma*(rho - p0)).

    Returns (applicable, ok, worst_excess): applicable is False when
    omega_sq is not below decay_edge, where no decay rate exists;
    worst_excess is max(phi^2 - bound) over output-grid points in [p0, p].
    p0 defaults to default_decay_p0.
    """
    if p0 is None:
        p0 = default_decay_p0(params)
    if not 0.0 < p0 < params.p:
        raise ValueError(f"p0 must lie in (0, {params.p}), got {p0}")
    if omega_sq >= decay_edge(params):
        return False, True, 0.0
    sigma = decay_rate(omega_sq, params)
    rho = np.linspace(0.0, basis.p, PROFILE_POINTS)
    rho = rho[rho >= p0]
    bound = (2.0 * params.a_pot / 3.0) * np.exp(-sigma * (rho - p0))
    excess = evaluate(basis, coeffs, rho) ** 2 - bound
    worst = float(np.max(excess))
    return True, worst <= 0.0, worst


def check_solution(basis, solution, q0, params, p0=None):
    """Verdicts of the model's bounds on a solution at norm q0, by name.

    The shape is that of the `checks` object of bounds.json. A conditional
    check that does not apply passes: the amplitude ceiling applies where
    the decay envelope does, below decay_edge, and the norm threshold below
    omega_sq_max.
    """
    bounds = theory_bounds(params)
    omega_sq = solution.omega_sq
    p0 = default_decay_p0(params) if p0 is None else p0
    applicable, ok, worst = check_decay_envelope(basis, solution.coeffs, omega_sq, params, p0)
    below_max = omega_sq < bounds.omega_sq_max
    return {
        "necessary_condition": {"pass": omega_sq > bounds.omega_sq_necessary},
        "amplitude_ceiling": {
            "applicable": applicable,
            "pass": not applicable or solution.phi_max < bounds.phi_max_ceiling,
        },
        "norm_threshold": {
            "applicable": below_max,
            "pass": not below_max or q0 > bounds.q0_threshold,
        },
        "decay_envelope": {"applicable": applicable, "pass": ok, "worst_excess": worst, "p0": p0},
    }


def gradient_fd_check(basis, params, q0, n_points=10, seed=0, step=1e-6):
    """Worst componentwise relative error of the gradient vs central differences.

    Samples n_points random points on the sphere |a|^2 = q0. Components are
    compared relative to max(|g_i|, 1e-8 * max|g|) so near-zero entries do
    not blow up the ratio. Each difference is taken as
    delta(a, a + e) - delta(a, a - e) of the factored increments, not of two
    absolute values of F, whose cancellation would swamp the comparison; the
    m coordinate steps of a point go to delta as one stack of candidates.
    """
    rng = np.random.default_rng(seed)
    problem = _SphereProblem(basis, params)
    steps = step * np.eye(basis.m)
    worst = 0.0
    for _ in range(n_points):
        v = rng.standard_normal(basis.m)
        a = math.sqrt(q0) * v / np.linalg.norm(v)
        phi_a = problem.phi(a)
        g = problem.gradient(a, phi_a)
        scale = np.maximum(np.abs(g), 1e-8 * np.max(np.abs(g)))
        plus = problem.delta(a, phi_a, a + steps)[0]
        minus = problem.delta(a, phi_a, a - steps)[0]
        fd = (plus - minus) / (2.0 * step)
        worst = max(worst, float(np.max(np.abs(fd - g) / scale)))
    return worst


def _ring_bump_nodes(rho, n_abs, p):
    scale = p / 4.0
    return rho**n_abs * (p - rho) * np.exp(-(((rho - scale) / scale) ** 2))


def _project_to_basis(basis, values):
    """Coefficients of the weighted-orthonormal projection of nodal values."""
    w_rho = basis.grid.weights * basis.grid.nodes
    return 4.0 * math.pi * (basis.psi_nodes @ (w_rho * values))


def _initial_coeffs(basis, params, config):
    if config.start_coeffs is None:
        a = _project_to_basis(
            basis, _ring_bump_nodes(basis.grid.nodes, abs(params.n), basis.p)
        )
    else:
        a = check_coeffs("start_coeffs", np.asarray(config.start_coeffs), basis.m)
    norm = np.linalg.norm(a)
    if norm == 0.0:
        raise ValueError("the start projects to the zero vector")
    return a * (math.sqrt(config.q0) / norm)


def _rowdot(u, v):
    """u.v over the last axis, each row with the arithmetic of a 1-D dot."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


class _SphereProblem:
    """F minus its additive constant, with machine-accurate differences.

    This is the one evaluation of F and its derivatives. The constant
    lam*b*q0/(4*pi) cannot move the minimizer, so minimize_on_sphere adds
    it back only to the reported value; without it F(0) = 0, and value()
    is delta() taken from the origin. gradient() is the Euclidean gradient
    (K + n^2 C) a + lam * int rho*phi^3*(6 phi^2 - 4 a_pot) psi.

    Near the minimizer the Armijo test must resolve decreases far below the
    roundoff of F itself, so the line search never compares two absolute
    values: delta() evaluates F(cand) - F(x) through factored increments
    (the quadratic part via step.M.(x + step/2), the sextic and quartic
    parts via the polynomial identities u^k - v^k = (u - v) * sum u^i v^j),
    whose error scales with the step instead of with |F|.
    """

    def __init__(self, basis, params):
        self.mat = basis.k_matrix + params.n**2 * basis.c_matrix
        self.psi = basis.psi_nodes
        self.w_rho = basis.grid.weights * basis.grid.nodes
        self.lam = params.lam
        self.a_pot = params.a_pot

    def phi(self, a):
        return a @ self.psi

    def value(self, a):
        return float(self.delta(np.zeros_like(a), 0.0, a)[0])

    def gradient(self, a, phi=None):
        if phi is None:
            phi = self.phi(a)
        ph2 = phi * phi
        nl = self.psi @ (self.w_rho * (phi * ph2 * (6.0 * ph2 - 4.0 * self.a_pot)))
        return self.mat @ a + self.lam * nl

    def delta(self, x, phi_x, cand, theta=0.0):
        """(F(cand) - F(x), phi(cand)) without cancellation in F.

        theta is the current Lagrange-multiplier estimate (x.g)/q0; the
        difference is taken of the shifted functional F - (theta/2)*|a|^2,
        which coincides with F on the sphere but has no radial slope, so
        the eps-level radius drift of the retraction cannot pollute the
        comparison. The shift changes nothing on-constraint.

        cand may also be a stack of candidates, one per row; the differences
        then come back as an array. For a single candidate the products
        round exactly like plain 1-D dot and matrix-vector products, so the
        stacked form leaves the line search's arithmetic unchanged.
        """
        step = cand - x
        dphi = step @ self.psi
        phi_c = phi_x + dphi
        mid = x + 0.5 * step
        quad = _rowdot(step, (self.mat @ mid[..., None])[..., 0]) - theta * _rowdot(step, mid)
        u, v = phi_c, phi_x
        u2, v2 = u * u, v * v
        u3, v3 = u2 * u, v2 * v
        s3 = u3 + u2 * v + u * v2 + v3
        s5 = u2 * s3 + v2 * v2 * (u + v)
        nl = self.lam * ((dphi * (s5 - self.a_pot * s3)) @ self.w_rho)
        return quad + nl, phi_c

    def reduced_hessian(self, x, phi_x, theta):
        """(H - theta*I, mu*x.x^T) at x, for the exact Hessian H of F.

        On the tangent space their sum equals the reduced Hessian, so the
        sum passes Cholesky only where the reduced Hessian is positive
        definite: at a stationary point on the sphere, a pass certifies a
        strict local minimum (Morse index 0). mu, the largest absolute row
        sum of H - theta*I over |x|^2, lifts the sum along x.
        """
        ph2 = phi_x * phi_x
        curv = self.lam * self.w_rho * ph2 * (30.0 * ph2 - 12.0 * self.a_pot)
        shifted = self.mat + (self.psi * curv) @ self.psi.T
        shifted.flat[:: len(x) + 1] -= theta
        mu = float(np.max(np.sum(np.abs(shifted), axis=1))) / float(np.dot(x, x))
        return shifted, mu * np.outer(x, x)

    def newton_direction(self, x, phi_x, gt, theta):
        """Tangent Newton step d; the iterate moves to x - d.

        Solves the bordered KKT system [[H - theta*I, x], [x^T, 0]] for the
        exact Hessian H of F. The block H - theta*I is shifted by mu*x.x^T,
        which leaves it unchanged on the tangent space. Its Cholesky
        factorization serves only as the positive-definiteness test that
        picks the Newton step; the step itself comes from one LU solve of
        the block with both right-hand sides. numpy has no triangular
        solver, so solving with the Cholesky factors would cost two full LU
        solves, and scipy's triangular solvers would put scipy on the run
        path.

        A failed factorization means the reduced Hessian is not positive
        definite, where Newton could head for a saddle. The step is then
        |R|^-1 gt, with R the block projected onto the tangent space plus
        the same shift along x and |R| its eigendecomposition with the
        eigenvalues replaced by their absolute values (floored at 1e-8 of
        the largest), so every negative-curvature direction is descended.
        """
        shifted, border = self.reduced_hessian(x, phi_x, theta)
        block = shifted + border
        try:
            np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            unit = x / math.sqrt(float(np.dot(x, x)))
            proj = np.eye(len(x)) - np.outer(unit, unit)
            evals, evecs = np.linalg.eigh(proj @ shifted @ proj + border)
            scale = np.maximum(np.abs(evals), 1e-8 * float(np.max(np.abs(evals))))
            d = evecs @ ((evecs.T @ gt) / scale)
            return d - float(np.dot(unit, d)) * unit
        z_g, z_x = np.linalg.solve(block, np.column_stack((gt, x))).T
        return z_g - (float(np.dot(x, z_g)) / float(np.dot(x, z_x))) * z_x


def _descend(x0, q0, problem, grad_tol, max_iter, callback):
    """Descent on the sphere along the (eigen-modified) Newton-KKT step."""
    radius = math.sqrt(q0)
    x = x0 * (radius / np.linalg.norm(x0))
    phi_x = problem.phi(x)
    f_led = problem.value(x)
    g = problem.gradient(x, phi_x)
    iterations = 0
    while True:
        unit = x / radius
        gt = g - np.dot(g, unit) * unit
        gt_norm = float(np.linalg.norm(gt))
        if iterations and callback is not None:  # every later pass follows a step
            callback(iterations, x.copy(), f_led, gt_norm)
        converged = gt_norm <= grad_tol * max(1.0, float(np.linalg.norm(g)))
        if converged or iterations >= max_iter:
            break
        theta = float(np.dot(x, g)) / q0
        d = problem.newton_direction(x, phi_x, gt, theta)
        if np.dot(d, gt) <= 0.0:
            d = gt  # roundoff cost the descent property; take steepest descent
        slope = float(np.dot(d, gt))
        eta = 1.0
        accepted = False
        while eta > _ETA_MIN:
            y = x - eta * d
            cand = y * (radius / np.linalg.norm(y))
            df, phi_c = problem.delta(x, phi_x, cand, theta)
            if df <= -_ARMIJO_C1 * eta * slope:
                accepted = True
                break
            eta *= _BACKTRACK
        if not accepted:
            break
        x, phi_x = cand, phi_c
        f_led += df
        g = problem.gradient(x, phi_x)
        iterations += 1
    return x, f_led, gt_norm, iterations, converged


def _lower(problem, cand, x, q0):
    """Whether F(cand) < F(x), decided by the factored difference.

    Converged runs end at values of F that agree to roundoff, so comparing
    the values each run accumulated would choose between them by noise.
    """
    phi_x = problem.phi(x)
    theta = float(np.dot(x, problem.gradient(x, phi_x))) / q0
    return problem.delta(x, phi_x, cand, theta)[0] < 0.0


def minimize_on_sphere(basis, params, config, callback=None):
    """Minimize F on the sphere |a|^2 = q0 and assemble the solution record.

    Runs one descent from the configured start, then `restarts` reruns
    (none by default) from the kept minimizer perturbed by 1% relative
    noise seeded by rng_seed, and keeps the lowest final F. omega_sq is the
    constraint's multiplier, 4*pi*(a.grad F(a))/q0 + 2*lam*b at the kept
    minimizer. The callback, when given, receives (iteration, coeffs, f,
    tangent_grad_norm) after every accepted step of every run, all taken at
    the new iterate.
    """
    if basis.p != params.p:
        raise ValueError(f"basis built for p={basis.p}, params have p={params.p}")
    # The constant lam*b*q0/(4*pi) is dropped inside the descent (it cannot
    # move the minimizer) and added back into the reported functional value.
    problem = _SphereProblem(basis, params)

    rng = np.random.default_rng(config.rng_seed)
    x0 = _initial_coeffs(basis, params, config)
    best = None
    total_iterations = 0
    for attempt in range(config.restarts + 1):
        start = x0 if attempt == 0 else best[0] * (
            1.0 + 0.01 * rng.standard_normal(basis.m)
        )
        result = _descend(
            start,
            config.q0,
            problem,
            config.grad_tol,
            config.max_iter,
            callback,
        )
        total_iterations += result[3]
        if best is None or _lower(problem, result[0], best[0], config.q0):
            best = result

    coeffs, f_val, gt_norm, _, converged = best
    rho_dense, phi_dense = dense_profile(basis, coeffs)
    peak = int(np.argmax(np.abs(phi_dense)))
    if phi_dense[peak] < 0.0:
        coeffs = -coeffs
        phi_dense = -phi_dense
    theta = float(coeffs @ problem.gradient(coeffs)) / config.q0
    omega_sq = 4.0 * math.pi * theta + 2.0 * params.lam * params.b
    return VortexSolution(
        coeffs=readonly(coeffs),
        omega_sq=omega_sq,
        residual_error=residual_error(coeffs, omega_sq, basis, params),
        phi_max=float(np.max(np.abs(phi_dense))),
        iterations=total_iterations,
        converged=bool(converged),
        f_value=float(f_val + params.lam * params.b * config.q0 / (4.0 * math.pi)),
        grad_norm=float(gt_norm),
    )
