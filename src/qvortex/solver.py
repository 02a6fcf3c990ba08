"""Constrained minimization on the sphere c.W.c = Q0 and its diagnostics.

A profile is the sine series phi = sum_k c_k sin(k*pi*rho/p) of
`qvortex.basis`, with prescribed norm Q0 exactly when c.W.c = Q0, so the
variational problem becomes: minimize on that sphere (in the metric W)

    F(c) = 1/2 * c.(K + n^2 C).c + lam*b*Q0/(4*pi)
           + lam * int rho*(phi^6 - a_pot*phi^4) drho.

The quadratic coefficient of the potential contributes only the constant
lam*b*Q0/(4*pi) because of the constraint, so it never moves the minimizer.
The minimizer is computed by Riemannian Newton steps under the metric W
(Absil, Mahony & Sepulchre, 2008, ch. 5) with an Armijo line-search
safeguard. Each step solves the bordered system

    [[H - theta*W, W.c], [c^T.W, 0]] [d; nu] = [g - theta*W.c; 0],

with g and H the gradient and exact Hessian of F and theta = c.g/Q0 the
current multiplier estimate, for a tangent direction d (c.W.d = 0). The
nonlinear part of H, S.diag(v).S^T for the sine table S and nodal
curvature weights v, is summed by the product-to-sum identity
sin(j*x)*sin(k*x) = [cos((j-k)*x) - cos((j+k)*x)]/2 from the 2m + 1 cosine
moments of v over the basis' cosine table ((2m + 1) x N doubles, 372 KB at
m = 60), so a step costs one (2m + 1) x N matrix-vector product and no
m x N x m product. The step reads one matrix, the reduced Hessian
R = P^T.(H - theta*W).P + mu*(W.u).(W.u)^T, P = I - u.(W.u)^T,
u = c/sqrt(c.W.c), and d = R^-1 (g - theta*W.c) where R passes Cholesky.
When it fails the reduced Hessian is not positive definite (Newton could
head for a saddle, such as an excited state), and the step is the
eigen-modified Newton step instead: the eigenvalues of R, taken in
orthonormal coordinates (L^-1.R.L^-T for W = L.L^T), are replaced by their
absolute values, which keeps the curvature information and turns the
saddle's negative directions into descent directions. Either way Armijo
backtracking by halves from the full step picks the step length, and the
iterate is retracted by rescaling back to c.W.c = Q0 (an exact
retraction). A full step that passes at the first trial is checked
against the Newton model: with slope = d.(g - theta*W.c) the model
predicts the decrease slope/2, and the quadratic through F(0),
F'(0) = -slope and F(1) has its minimizer at eta* = 1/(2 - rho), rho the
actual decrease over the predicted one. Where rho < 2 and eta*, capped at
2, lies more than 0.1 from 1, one more trial at eta* is taken and the
lower F of the two is kept (Nocedal & Wright, Numerical Optimization,
2006, sec. 3.5): an unrefined unit step over- or undershoots for several
steps before the quadratic phase, which Armijo alone, asking only for some
decrease, never notices. The stopping test measures gradients in the
metric W, |v| = |L^-1.v|, as in orthonormal coordinates, so it does not
depend on how the modes are scaled.

The squared frequency is the Lagrange multiplier of the norm constraint:

    omega^2 = 4*pi*theta + 2*lam*b,

with theta = c.g/Q0 the multiplier estimate of the Newton step, taken at
the solution (g = theta*W.c at a stationary point on the sphere). The
potential's quadratic term, which F carries only as the constant
lam*b*Q0/(4*pi), contributes the 2*lam*b.

Solution quality is reported as the residual of the radial field equation,

    RE = (1/p) * sqrt( int (phi_rhorho + phi_rho/rho - n^2 phi/rho^2
                            + omega^2 phi - U'(phi))^2 drho ),

evaluated with analytic derivatives on the shared quadrature grid: the
sine series differentiated term by term on the basis' sine and cosine
tables. For |n| >= 2 the integrand grows like 1/rho^2 toward the origin because sine
modes vanish only linearly there; the grid has no node at rho = 0 and the
reported RE is understood as this grid-discretized value.

The output profile on PROFILE_POINTS uniform radii comes from one real FFT
(basis.evaluate_uniform), summed once per solve and kept in the solution;
phi_max, the decay check and the solve command's profile.csv all read it,
and the solve command's phi_rho and phi_rhorho come from one more FFT on
the same radii (basis.evaluate_uniform_derivatives).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import _product_indices, evaluate_uniform
from .model import decay_edge, decay_rate, potential_derivative, theory_bounds
from .validation import check_coeffs, check_positive, check_positive_int, readonly

__all__ = [
    "SolveConfig",
    "VortexSolution",
    "PROFILE_POINTS",
    "minimize_on_sphere",
    "residual_error",
    "check_decay_envelope",
    "check_solution",
    "gradient_fd_check",
    "branch_tangent",
]

PROFILE_POINTS = 2001

_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5
_ETA_MIN = 1e-18
_ETA_BAND = 0.1  # a unit step whose model minimizer eta* is this far off gets one more trial
_ETA_MAX = 2.0  # the cap on eta*

_DECAY_P0_FRACTION = 0.75  # inner radius of the decay envelope, over p
_FD_POINTS = 10  # random points of the gradient check
_FD_STEP = 1e-6  # the W-norm of its coordinate steps
_INCREMENT_WORK_ARRAYS = 4  # arrays _SphereProblem.potential_increment can take as work


@dataclass(frozen=True)
class SolveConfig:
    """Options for one constrained solve.

    q0           : prescribed reduced norm, > 0
    grad_tol     : stop when |tangent grad| <= grad_tol * max(1, |grad|),
                   both norms in the metric W (|v|^2 = v.W^-1.v)
    max_iter     : iteration cap per descent run
    start_coeffs : starting raw sine coefficients, of any norm; the
                   descent starts from the lower-F, rescaled onto the
                   sphere c.W.c = q0, of them and the thin-wall
                   profile tanh(rho)^|n| * (1 - tanh(rho - R))/2,
                   R = sqrt(q0/(pi*a_pot)) + |n|, and a tie keeps it.
                   None (default) starts from the lowest-F of the ring bump
                   (rho/p)^|n| * (p - rho) * exp(-((rho - p/4) / (p/4))^2),
                   the linear ground mode (lowest generalized
                   eigenvector of K + n^2 C against W) and the thin
                   wall; a tie keeps the bump
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

    coeffs are the sine coefficients c, on the sphere c.W.c = q0, and are
    sign-normalized so the profile is non-negative at its largest extremum.
    profile is phi at PROFILE_POINTS uniform radii from 0 to p inclusive,
    summed by basis.evaluate_uniform, and phi_max its largest absolute
    value. grad_norm is the final norm of g - theta*W.c in the metric W,
    sqrt(v.W^-1.v), attached so non-convergence is never a silent success.
    """

    coeffs: np.ndarray
    omega_sq: float
    residual_error: float
    profile: np.ndarray
    phi_max: float
    iterations: int
    converged: bool
    f_value: float
    grad_norm: float


def residual_error(coeffs, omega_sq, basis, params):
    """Normalized L2 residual of the field equation on the shared grid."""
    c = check_coeffs("coeffs", coeffs, basis.m)
    rho = basis.grid.nodes
    # phi = sum_k c_k sin(f_k rho), differentiated term by term
    freq = np.arange(1, basis.m + 1) * (math.pi / basis.p)
    c_freq = c * freq
    phi = c @ basis.sin_nodes
    dphi = c_freq @ basis.cos_nodes[1 : basis.m + 1]
    d2phi = -(c_freq * freq) @ basis.sin_nodes
    r = (
        d2phi
        + dphi / rho
        - params.n**2 * phi / rho**2
        + omega_sq * phi
        - potential_derivative(phi, params)
    )
    return float(np.sqrt(np.dot(basis.grid.weights, r * r))) / basis.p


def check_decay_envelope(profile, omega_sq, params):
    """Exponential tail check phi^2 <= (2*a_pot/3)*exp(-sigma*(rho - p0)).

    profile is phi at uniform radii from 0 to p inclusive, such as a
    solution's profile. The inner radius is p0 = 0.75*p. Returns
    (applicable, ok, worst_excess): applicable is True only for omega_sq
    below decay_edge (a NaN is not), as no decay rate exists elsewhere;
    worst_excess is max(phi^2 - bound) over the profile points in [p0, p].
    """
    p0 = _DECAY_P0_FRACTION * params.p
    if not omega_sq < decay_edge(params):
        return False, True, 0.0
    sigma = decay_rate(omega_sq, params)
    rho = np.linspace(0.0, params.p, len(profile))
    tail = rho >= p0
    bound = (2.0 * params.a_pot / 3.0) * np.exp(-sigma * (rho[tail] - p0))
    excess = profile[tail] ** 2 - bound
    worst = float(np.max(excess))
    return True, worst <= 0.0, worst


def check_solution(solution, q0, params):
    """Verdicts of the model's bounds on a solution at norm q0, by name.

    The shape is that of the `checks` object of bounds.json. The existence
    window omega_sq_min < omega_sq < omega_sq_max is open at both edges. A
    conditional check that does not apply passes: the amplitude ceiling
    applies where the decay envelope does, below decay_edge, and the norm
    threshold below omega_sq_max. The decay envelope starts at p0 = 0.75*p,
    which the decay_envelope entry reports.
    """
    bounds = theory_bounds(params)
    omega_sq = solution.omega_sq
    applicable, ok, worst = check_decay_envelope(solution.profile, omega_sq, params)
    below_max = omega_sq < bounds.omega_sq_max
    return {
        "existence_window": {"pass": bounds.omega_sq_min < omega_sq < bounds.omega_sq_max},
        "necessary_condition": {"pass": omega_sq > bounds.omega_sq_necessary},
        "amplitude_ceiling": {
            "applicable": applicable,
            "pass": not applicable or solution.phi_max < bounds.phi_max_ceiling,
        },
        "norm_threshold": {
            "applicable": below_max,
            "pass": not below_max or q0 > bounds.q0_threshold,
        },
        "decay_envelope": {"applicable": applicable, "pass": ok, "worst_excess": worst,
                           "p0": _DECAY_P0_FRACTION * params.p},
    }


def gradient_fd_check(basis, params, q0, seed=0):
    """Worst componentwise relative error of the gradient vs central differences.

    Samples 10 points uniformly on the sphere c.W.c = q0 in its metric,
    c = L^-T a with W = L.L^T and a random on |a|^2 = q0, seeded by seed,
    and steps each c_i by h_i = 1e-6/sqrt(W_ii) either way, a step of
    W-norm 1e-6. Components are
    compared relative to max(|g_i|, 1e-8 * max|g|) so near-zero entries do
    not blow up the ratio. Each central difference is one factored increment
    F(c + h_i*e_i) - F(c - h_i*e_i), not the difference of two absolute
    values of F, whose cancellation would swamp the comparison, and is
    divided by its width as rounded, (c + h_i*e_i)_i - (c - h_i*e_i)_i: 2h_i
    would floor the error at about 3e-10. The steps are coordinate steps, so
    the m differences of a point cost O(m*N) and form no m x N x m product:
    the profile at c - h_i*e_i is phi(c) + ((c - h_i*e_i)_i - c_i)*s_i and
    the image of the step is width_i*s_i, s_i the i-th sine row, both row
    scalings of the sine table; with M = K + n^2 C the quadratic part
    step.M.mid is width_i*((M.c)_i + M_ii*(mid_i - c_i)), as the midpoint
    mid differs from c in its i-th entry alone. The sextic-quartic part of
    all m is one stacked call of _SphereProblem.potential_increment, whose
    m x N arrays, like the profiles and step images, are allocated once.
    """
    units = np.random.default_rng(seed).standard_normal((_FD_POINTS, basis.m))
    units *= math.sqrt(q0) / np.linalg.norm(units, axis=1, keepdims=True)
    points = np.linalg.solve(basis.w_cholesky.T, units.T).T
    problem = _SphereProblem(basis, params)
    steps = _FD_STEP / np.sqrt(np.diag(basis.w_matrix))
    mat_diag = np.diagonal(problem.mat)
    phi_lower, dphi, *work = np.empty(
        (2 + _INCREMENT_WORK_ARRAYS, basis.m, problem.sines.shape[1])
    )
    worst = 0.0
    for c in points:
        phi = problem.phi(c)
        g = problem.gradient(c, phi)
        scale = np.maximum(np.abs(g), 1e-8 * np.max(np.abs(g)))
        lower, upper = c - steps, c + steps
        width = upper - lower
        np.multiply((lower - c)[:, None], problem.sines, out=phi_lower)
        phi_lower += phi
        np.multiply(width[:, None], problem.sines, out=dphi)
        quad = width * (problem.mat @ c + mat_diag * (lower + 0.5 * width - c))
        fd = (quad + problem.potential_increment(phi_lower, dphi, work)[0]) / width
        worst = max(worst, float(np.max(np.abs(fd - g) / scale)))
    return worst


def _ring_bump_nodes(rho, n_abs, p):
    scale = p / 4.0
    return (rho / p) ** n_abs * (p - rho) * np.exp(-(((rho - scale) / scale) ** 2))


def _project_to_basis(basis, values):
    """Coefficients c of the projection of nodal values: W.c = 4*pi*S.(w*rho*values)."""
    w_rho = basis.grid.weights * basis.grid.nodes
    return np.linalg.solve(basis.w_matrix, 4.0 * math.pi * (basis.sin_nodes @ (w_rho * values)))


def _thin_wall_nodes(rho, n_abs, q0, a_pot):
    """tanh(rho)^|n| * (1 - tanh(rho - R))/2, a plateau ending in a wall at R.

    A plateau at sqrt(a_pot/2), the thin-wall amplitude, holds norm q0 out
    to radius sqrt(q0/(pi*a_pot)); the vortex core moves the wall |n| out.
    """
    wall = _thin_wall_radius(n_abs, q0, a_pot)
    return np.tanh(rho) ** n_abs * 0.5 * (1.0 - np.tanh(rho - wall))


def _thin_wall_radius(n_abs, q0, a_pot):
    """The wall radius R of _thin_wall_nodes."""
    return math.sqrt(q0 / (math.pi * a_pot)) + n_abs


def _initial_coeffs(basis, params, config, problem):
    """The start candidate of lowest F on the sphere.

    A cold solve offers the ring bump, the linear ground mode (see
    _ground_mode; the minimizer as q0 -> 0, formed once per basis and n^2
    and kept in basis.ground_modes) and the thin-wall
    profile (its large-q0 shape); a configured start_coeffs takes the place
    of the first two, next to the thin wall. The candidates are compared on
    the sphere by the factored difference of _lower, and a tie keeps the
    first (the bump, or the configured start); a shape that projects to
    zero, such as a thin wall inside the first node, is not offered. The
    winner comes back unscaled, as the descent rescales its start.
    """
    rho, n_abs = basis.grid.nodes, abs(params.n)
    if config.start_coeffs is not None:
        a = check_coeffs("start_coeffs", np.asarray(config.start_coeffs), basis.m)
        if not a.any():
            raise ValueError("the start projects to the zero vector")
        candidates = (a,)
    else:
        modes = basis.ground_modes
        if params.n**2 not in modes:
            modes[params.n**2] = readonly(_ground_mode(problem))
        candidates = (
            _project_to_basis(basis, _ring_bump_nodes(rho, n_abs, basis.p)),
            modes[params.n**2],
        )
    candidates += (
        _project_to_basis(basis, _thin_wall_nodes(rho, n_abs, config.q0, params.a_pot)),
    )
    candidates = [a for a in candidates if a.any()]
    on_sphere = [problem.onto_sphere(a, config.q0) for a in candidates]
    best = 0
    for k in range(1, len(candidates)):
        if _lower(problem, on_sphere[k], on_sphere[best], config.q0):
            best = k
    return candidates[best]


class _SphereProblem:
    """F minus its additive constant, with machine-accurate differences.

    This is the one evaluation of F and its derivatives. The constant
    lam*b*q0/(4*pi) cannot move the minimizer, so minimize_on_sphere adds
    it back only to the reported value; without it F(0) = 0, and value()
    is delta() taken from the origin. gradient() is the Euclidean gradient
    (K + n^2 C) c + lam * int rho*phi^3*(6 phi^2 - 4 a_pot) s, s the sines.

    Near the minimizer the Armijo test must resolve decreases far below the
    roundoff of F itself, so the line search never compares two absolute
    values: delta() evaluates F(cand) - F(x) through factored increments
    (the quadratic part via step.M.(x + step/2), the sextic-quartic part as
    one product with the factor phi(cand) - phi(x)), whose error scales with
    the step instead of with |F|.
    """

    def __init__(self, basis, params):
        self.mat = basis.k_matrix + params.n**2 * basis.c_matrix
        self.gram = basis.w_matrix
        self.to_unit = basis.w_cholesky_inverse
        self.sines = basis.sin_nodes
        self.cos_nodes = basis.cos_nodes
        self.diff, self.total = _product_indices(basis.m)
        self.w_rho = basis.grid.weights * basis.grid.nodes
        self.lam = params.lam
        self.a_pot = params.a_pot

    def onto_sphere(self, c, q0):
        """c rescaled onto the sphere c.W.c = q0."""
        return c * math.sqrt(q0 / float(c @ (self.gram @ c)))

    def phi(self, c):
        return c @ self.sines

    def value(self, c):
        return float(self.delta(np.zeros_like(c), 0.0, c)[0])

    def gradient(self, c, phi=None):
        if phi is None:
            phi = self.phi(c)
        ph2 = phi * phi
        nl = self.sines @ (self.w_rho * (phi * ph2 * (6.0 * ph2 - 4.0 * self.a_pot)))
        return self.mat @ c + self.lam * nl

    def delta(self, x, phi_x, cand, theta=0.0):
        """(F(cand) - F(x), phi(cand)) without cancellation in F.

        theta is the current Lagrange-multiplier estimate (x.g)/q0; the
        difference is taken of the shifted functional F - (theta/2)*c.W.c,
        which coincides with F on the sphere but has no radial slope, so
        the eps-level radius drift of the retraction cannot pollute the
        comparison. The shift changes nothing on-constraint, and at
        theta = 0 it is not formed. The quadratic part is step.M.(x + step/2)
        and the sextic-quartic part potential_increment's, of the exact
        image step @ S of the step.
        """
        step = cand - x
        mid = x + 0.5 * step
        quad = np.dot(step, self.mat @ mid)
        if theta:
            quad = quad - theta * np.dot(step, self.gram @ mid)
        increment, phi_c = self.potential_increment(phi_x, step @ self.sines)
        return quad + increment, phi_c

    def potential_increment(self, phi_x, dphi, work=None):
        """(lam * int rho*(P(u) - P(v)) drho, u), v = phi_x, u = v + dphi, P = phi^6 - a_pot*phi^4.

        dphi is the exact image phi(cand) - phi(x) of a step. The increment
        is the factored product P(u) - P(v) =
        [(u + v)*dphi] * [u^2 (u^2 + v^2 - a_pot) + v^2 (v^2 - a_pot)],
        formed in place: every term carries the factor dphi, so its error
        scales with the step instead of with |P|. phi_x and dphi may be
        stacks of any leading shape, one increment per row; dphi is
        overwritten (it takes u^2).

        work, when given, holds _INCREMENT_WORK_ARRAYS arrays shaped like u
        that take u, the factor, v^2 and the bracket in place of fresh ones;
        u is then returned in work[0]. The arithmetic is the same either way.
        """
        phi_c, factor, v2, bracket = work or (None,) * _INCREMENT_WORK_ARRAYS
        phi_c = np.add(phi_x, dphi, out=phi_c)
        factor = np.add(phi_c, phi_x, out=factor)
        factor *= dphi
        u2 = np.multiply(phi_c, phi_c, out=dphi)
        v2 = np.multiply(phi_x, phi_x, out=v2)
        bracket = np.add(u2, v2, out=bracket)
        bracket -= self.a_pot
        bracket *= u2
        v_term = np.subtract(v2, self.a_pot, out=u2)
        v_term *= v2
        bracket += v_term
        factor *= bracket
        return self.lam * (factor @ self.w_rho), phi_c

    def curvature(self, phi):
        """The nodal curvature weights v = lam*w*rho*(30 phi^4 - 12 a_pot phi^2) of hessian."""
        ph2 = phi * phi
        return self.lam * self.w_rho * ph2 * (30.0 * ph2 - 12.0 * self.a_pot)

    def hessian(self, phi):
        """Exact Hessian H = K + n^2 C + B of F at the c with phi = c @ S.

        The nonlinear part is B = S.diag(v).S^T with the nodal curvature
        weights v = lam*w*rho*(30 phi^4 - 12 a_pot phi^2) and S the raw sine
        modes at the nodes. By sin(j*x)*sin(k*x) =
        [cos((j-k)*x) - cos((j+k)*x)]/2, B is (M_|j-k| - M_j+k)/2, a
        Toeplitz minus a Hankel matrix of the cosine moments
        M_l = sum_i v_i*cos(l*x_i), l = 0..2m (Olver & Townsend,
        SIAM Rev. 55 (2013) 462). That is one (2m + 1) x N matrix-vector
        product and a gather in place of an m x N x m product.

        A basis of modes (rho/p)*sin(k*x) keeps this form, with the moments
        taken of v*rho^2/p^2; a mode outside the sine family, such as a
        corner mode chi, adds one row and column, S.(v*chi), by a direct
        O(m*N) product.
        """
        moments = self.cos_nodes @ self.curvature(phi)
        moments *= 0.5
        products = moments[self.diff]
        products -= moments[self.total]
        return np.add(products, self.mat, out=products)

    def reduced_hessian(self, x, phi_x, theta):
        """R = P^T.B.P + mu*(W.u).(W.u)^T, B = H - theta*W, P = I - u.(W.u)^T.

        With u = x/sqrt(x.W.x) and d = t + alpha*u, t tangent (u.W.t = 0),
        d.R.d = t.B.t + mu*alpha^2 for any mu > 0. So R passes Cholesky
        exactly where the Riemannian Hessian in the metric W is positive
        definite on the tangent space, and its number of negative
        eigenvalues is the Morse index. mu = |B|_inf * |u|^2 gives u the
        Rayleigh quotient |B|_inf (largest absolute row sum), as orthonormal
        modes do, so R's entries stay at B's scale.
        R is formed in place on H, in O(m^2), as B - W.u.v^T - v.(W.u)^T,
        v = B.u - (u.B.u + mu)/2 * W.u.
        """
        r = self.hessian(phi_x)
        r -= theta * self.gram
        w_x = self.gram @ x
        scale = 1.0 / math.sqrt(float(np.dot(x, w_x)))
        unit, w_unit = x * scale, w_x * scale
        mu = float(np.max(np.sum(np.abs(r), axis=1))) * float(np.dot(unit, unit))
        v = r @ unit
        v -= 0.5 * (float(np.dot(unit, v)) + mu) * w_unit
        r -= np.outer(w_unit, v) + np.outer(v, w_unit)
        return r

    def newton_direction(self, x, phi_x, gt, theta):
        """Tangent Newton step d; the iterate moves to x - d.

        gt = g - theta*W.x vanishes on u, so where R = reduced_hessian passes
        Cholesky, R^-1 gt is tangent and is the step of the bordered KKT
        system [[H - theta*W, W.x], [x^T.W, 0]]. The factorization only tests
        R: the step comes from one LU solve, as numpy has no triangular
        solver and scipy's would put scipy on the run path. Where it fails,
        Newton could head for a saddle, and the step is |R|^-1 gt in
        orthonormal coordinates, L^-T.|L^-1.R.L^-T|^-1.L^-1.gt, W = L.L^T: the
        eigenvalues replaced by their absolute values (floored at 1e-8 of the
        largest), so every negative-curvature direction is descended.
        Either step then loses its component along x, which leaves d.gt as is.
        """
        r = self.reduced_hessian(x, phi_x, theta)
        if _passes_cholesky(r):
            d = np.linalg.solve(r, gt)
        else:
            evals, evecs = np.linalg.eigh(self.to_unit @ r @ self.to_unit.T)
            scale = np.maximum(np.abs(evals), 1e-8 * float(np.max(np.abs(evals))))
            d = self.to_unit.T @ (evecs @ ((evecs.T @ (self.to_unit @ gt)) / scale))
        w_x = self.gram @ x
        return d - (float(np.dot(w_x, d)) / float(np.dot(w_x, x))) * x


def _passes_cholesky(r):
    """Whether r, a reduced Hessian, factors by Cholesky: positive definite."""
    try:
        np.linalg.cholesky(r)
    except np.linalg.LinAlgError:
        return False
    return True


def branch_tangent(basis, params, coeffs, q0):
    """dc/dq0 along the branch of minimizers through the converged coeffs, or None.

    Differentiating g(c) = theta*W.c and c.W.c = q0 in q0 gives
    B.c' = theta'*W.c and c.W.c' = 1/2, B = H - theta*W at theta = c.g/q0.
    So c' = c/(2*q0) + t with t tangent, and projecting out W.c with
    P^T.v = v - W.c*(c.v)/q0 leaves P^T.B.t = -P^T.B.c/(2*q0). On tangent
    vectors the reduced Hessian R acts as P^T.B, and R^-1 maps a vector
    that c annihilates to a tangent one, so t = -R^-1.P^T.B.c/(2*q0): the
    linear algebra of a Newton step (one O(m^2) assembly of R, its
    Cholesky test and one LU solve) without its line search. Where R fails
    that test the point is no strict local minimum on the sphere, and None
    is returned.
    """
    problem = _SphereProblem(basis, params)
    c = check_coeffs("coeffs", coeffs, basis.m)
    phi = problem.phi(c)
    theta = float(c @ problem.gradient(c, phi)) / q0
    r = problem.reduced_hessian(c, phi, theta)
    if not _passes_cholesky(r):
        return None
    w_c = problem.gram @ c
    # H.c = (K + n^2 C).c + S.(v*phi), as phi = c @ S
    b_c = problem.mat @ c + problem.sines @ (problem.curvature(phi) * phi) - theta * w_c
    return (c - np.linalg.solve(r, b_c - (float(c @ b_c) / q0) * w_c)) / (2.0 * q0)


def _ground_mode(problem):
    """The linear ground mode, the lowest generalized eigenvector of (K + n^2 C, W).

    It dominates T = (K + n^2 C)^-1 W, one LU solve. Six squarings, each
    rescaled by its largest entry, give T^64, whose columns lie along it as
    far as (lambda_1/lambda_2)^64 = (j_n,1/j_n,2)^128 allows. At p = 20,
    1 - cos is at roundoff up to n = 30, 3e-10 at n = 60 and 5e-4 at
    n = 300: only a start, which the descent refines. It depends on the
    basis and n^2 alone, so _initial_coeffs forms it once per basis and
    winding (about 0.18 ms at m = 60); verify's two cold solves share it.
    """
    power = np.linalg.solve(problem.mat, problem.gram)
    for _ in range(6):
        power = power @ power
        power /= np.max(np.abs(power))
    return power[:, 0]


def _descend(x0, q0, problem, grad_tol, max_iter, callback):
    """Descent on the sphere c.W.c = q0 along the (eigen-modified) Newton-KKT step.

    Each step length is the first of 1, 1/2, 1/4, ... that passes Armijo;
    an accepted unit step also competes, by the factored difference, with
    one trial at the model minimizer eta* where that lies outside
    1 +- _ETA_BAND (see the module docstring). f_led sums the kept
    differences.
    """
    x = problem.onto_sphere(x0, q0)
    phi_x = problem.phi(x)
    f_led = 0.0 if callback is None else problem.value(x)  # only the callback reads it
    g = problem.gradient(x, phi_x)
    iterations = 0
    while True:
        theta = float(np.dot(x, g)) / q0
        gt = g - theta * (problem.gram @ x)
        gt_unit = problem.to_unit @ gt
        gt_norm = float(np.linalg.norm(gt_unit))
        if iterations and callback is not None:  # every later pass follows a step
            callback(iterations, x.copy(), f_led, gt_norm)
        converged = gt_norm <= grad_tol * max(1.0, float(np.linalg.norm(problem.to_unit @ g)))
        if converged or iterations >= max_iter:
            break
        d = problem.newton_direction(x, phi_x, gt, theta)
        if np.dot(d, gt) <= 0.0:
            # roundoff cost the descent property; take steepest descent in W
            d = problem.to_unit.T @ gt_unit
        slope = float(np.dot(d, gt))
        eta = 1.0
        accepted = False
        while eta > _ETA_MIN:
            cand = problem.onto_sphere(x - eta * d, q0)
            df, phi_c = problem.delta(x, phi_x, cand, theta)
            if df <= -_ARMIJO_C1 * eta * slope:
                accepted = True
                break
            eta *= _BACKTRACK
        if not accepted:
            break
        rho = -2.0 * df / slope  # the actual decrease over the model's, slope/2
        if eta == 1.0 and rho < 2.0:
            # the quadratic through F(0), F'(0) = -slope and F(1) bottoms out
            # at eta* = 1/(2 - rho); try it where it is far from the unit step
            eta_star = min(1.0 / (2.0 - rho), _ETA_MAX)
            if abs(eta_star - 1.0) > _ETA_BAND:
                refined = problem.onto_sphere(x - eta_star * d, q0)
                df_refined, phi_refined = problem.delta(x, phi_x, refined, theta)
                if df_refined < df:
                    cand, df, phi_c = refined, df_refined, phi_refined
        x, phi_x = cand, phi_c
        f_led += df
        g = problem.gradient(x, phi_x)
        iterations += 1
    return x, gt_norm, iterations, converged


def _lower(problem, cand, x, q0):
    """Whether F(cand) < F(x), decided by the factored difference.

    It picks the start and the kept restart run. Converged runs end
    at values of F that agree to roundoff, so comparing the values each run
    accumulated would choose between them by noise.
    """
    phi_x = problem.phi(x)
    theta = float(np.dot(x, problem.gradient(x, phi_x))) / q0
    return problem.delta(x, phi_x, cand, theta)[0] < 0.0


def minimize_on_sphere(basis, params, config, callback=None):
    """Minimize F on the sphere c.W.c = q0 and assemble the solution record.

    Runs one descent from the start candidate of lowest F (see
    SolveConfig.start_coeffs), then `restarts` reruns
    (none by default) from the kept minimizer perturbed by 1% relative
    noise seeded by rng_seed, and keeps the lowest final F. Both the start
    candidates and the runs are compared by the factored difference of
    _lower, so without a callback F itself is evaluated once, for f_value.
    omega_sq is the constraint's multiplier, 4*pi*(c.grad F(c))/q0 +
    2*lam*b at the kept minimizer, and f_value is F there. The profile on
    the PROFILE_POINTS output radii is summed once, for the sign
    normalization, and kept in the solution. The callback, when given,
    receives (iteration, coeffs, f, tangent_grad_norm) after every accepted
    step of every run, all taken at the new iterate; f is F less its
    constant, summed from the accepted line-search increments, so it falls
    monotonically.
    """
    if basis.p != params.p:
        raise ValueError(f"basis built for p={basis.p}, params have p={params.p}")
    # The constant lam*b*q0/(4*pi) is dropped inside the descent (it cannot
    # move the minimizer) and added back into the reported functional value.
    problem = _SphereProblem(basis, params)

    rng = np.random.default_rng(config.rng_seed)
    x0 = _initial_coeffs(basis, params, config, problem)
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
        total_iterations += result[2]
        if best is None or _lower(problem, result[0], best[0], config.q0):
            best = result

    coeffs, gt_norm, _, converged = best
    phi_dense = evaluate_uniform(basis, coeffs, PROFILE_POINTS - 1)
    peak = int(np.argmax(np.abs(phi_dense)))
    if phi_dense[peak] < 0.0:
        coeffs = -coeffs
        phi_dense = 0.0 - phi_dense  # keeps both ends +0.0, as summing -coeffs would
    theta = float(coeffs @ problem.gradient(coeffs)) / config.q0
    omega_sq = 4.0 * math.pi * theta + 2.0 * params.lam * params.b
    return VortexSolution(
        coeffs=readonly(coeffs),
        omega_sq=omega_sq,
        residual_error=residual_error(coeffs, omega_sq, basis, params),
        profile=readonly(phi_dense),
        phi_max=float(np.max(np.abs(phi_dense))),
        iterations=total_iterations,
        converged=bool(converged),
        f_value=problem.value(coeffs) + params.lam * params.b * config.q0 / (4.0 * math.pi),
        grad_norm=float(gt_norm),
    )
