import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qvortex import (
    PROFILE_POINTS,
    ModelParams,
    SolveConfig,
    bessel_first_zero,
    build_basis,
    build_grid,
    check_decay_envelope,
    evaluate_uniform,
    minimize_on_sphere,
    residual_error,
    sweep_n,
    sweep_q0,
)
from qvortex.model import decay_edge, potential_derivative, theory_bounds
from qvortex.solver import (
    _INCREMENT_WORK_ARRAYS,
    _descend,
    _ground_mode,
    _initial_coeffs,
    _project_to_basis,
    _SphereProblem,
    _thin_wall_nodes,
    branch_derivatives,
    check_solution,
    gradient_fd_check,
)


def sphere_point(basis, q0, seed):
    """A seeded random coefficient vector c on the sphere c.W.c = q0."""
    v = np.random.default_rng(seed).standard_normal(basis.m)
    return math.sqrt(q0 / float(v @ basis.w_matrix @ v)) * v


def w_norm_sq(basis, c):
    """c.W.c, the norm 4*pi*int(rho*phi^2) of the profile of c."""
    return float(c @ basis.w_matrix @ c)


def tangent_basis(basis, x):
    """Orthonormal columns spanning the tangent space {t : x.W.t = 0} at x."""
    wx = basis.w_matrix @ x
    return np.linalg.qr(np.column_stack((wx, np.eye(basis.m)[:, :-1])))[0][:, 1:]


def certify_minimum(basis, params, sol, q0):
    """Cholesky of the reduced Hessian at sol, the matrix newton_direction factors.

    Raises LinAlgError unless the reduced Hessian is positive definite, which
    at a converged solution certifies a minimum (Morse index 0), not a saddle.
    """
    problem = _SphereProblem(basis, params)
    x = np.array(sol.coeffs)
    phi = problem.phi(x)
    theta = float(x @ problem.gradient(x, phi)) / q0
    np.linalg.cholesky(problem.reduced_hessian(x, phi, theta))


def rowdot(u, v):
    """u.v over the last axis, each row with the arithmetic of a 1-D dot."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def expanded_increment(problem, phi_x, dphi):
    """_SphereProblem.potential_increment as expanded sums, rows stacked alike.

    u^k - v^k = (u - v) * sum u^i v^j for k = 4 and 6, the form the factored
    product replaced.
    """
    u, v = phi_x + dphi, phi_x
    u2, v2 = u * u, v * v
    s3 = u2 * u + u2 * v + u * v2 + v2 * v
    s5 = u2 * s3 + v2 * v2 * (u + v)
    return problem.lam * ((dphi * (s5 - problem.a_pot * s3)) @ problem.w_rho)


def expanded_delta(problem, x, phi_x, cand, theta=0.0):
    """_SphereProblem.delta with the sextic-quartic increment as expanded sums.

    Starts and candidates may be stacked, one per row; the quadratic part is
    delta's own.
    """
    step = cand - x
    mid = x + 0.5 * step
    quad = rowdot(step, (problem.mat @ mid[..., None])[..., 0])
    if theta:
        quad = quad - theta * rowdot(step, (problem.gram @ mid[..., None])[..., 0])
    return quad + expanded_increment(problem, phi_x, step @ problem.sines)


def two_sided_reference(basis, params, seed):
    """gradient_fd_check's value from stacked BLAS products and the expanded sums.

    F(c + h_i e_i) - F(c - h_i e_i), h_i = 1e-6/sqrt(W_ii), by expanded_delta
    over the width (c + h_i e_i)_i - (c - h_i e_i)_i, at the check's points
    c = L^-T a, W = L.L^T, a uniform on |a|^2 = 100.
    """
    problem = _SphereProblem(basis, params)
    rng = np.random.default_rng(seed)
    low = basis.w_cholesky
    step, worst = np.diag(1e-6 / np.sqrt(np.diag(basis.w_matrix))), 0.0
    for _ in range(10):
        v = rng.standard_normal(basis.m)
        a = np.linalg.solve(low.T, math.sqrt(100.0) * v / np.linalg.norm(v))
        assert w_norm_sq(basis, a) == pytest.approx(100.0, rel=1e-12)
        g = problem.gradient(a)
        scale = np.maximum(np.abs(g), 1e-8 * np.max(np.abs(g)))
        lower, upper = a - step, a + step
        width = np.diagonal(upper) - np.diagonal(lower)
        fd = expanded_delta(problem, lower, problem.phi(lower), upper) / width
        worst = max(worst, float(np.max(np.abs(fd - g) / scale)))
    return worst


def linear_mode(basis, problem):
    """The lowest eigenvector of the pencil (K + n^2 C, W), by scipy."""
    import scipy.linalg

    return scipy.linalg.eigh(problem.mat, basis.w_matrix, subset_by_index=[0, 0])[1][:, 0]


def trapezoid_coeffs(basis):
    """Projection of the flat-top trial profile min(rho, 1, p - rho)."""
    rho = basis.grid.nodes
    return tuple(_project_to_basis(basis, np.minimum(np.minimum(rho, 1.0), basis.p - rho)))


def solve_with_run_lengths(basis, params, config):
    """Solve and return (solution, accepted steps of each descent run).

    The callback's step index restarts at 1 in every descent run.
    """
    runs = []

    def count(step, *_):
        if step == 1:
            runs.append(0)
        runs[-1] = step

    return minimize_on_sphere(basis, params, config, callback=count), runs


class TestSolveConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SolveConfig(q0=0.0)
        with pytest.raises(ValueError):
            SolveConfig(q0=10.0, grad_tol=0.0)
        with pytest.raises(ValueError):
            SolveConfig(q0=10.0, max_iter=0)
        with pytest.raises(ValueError):
            SolveConfig(q0=10.0, restarts=-1)
        with pytest.raises(ValueError):
            SolveConfig(q0=10.0, rng_seed=-1)
        with pytest.raises(ValueError):
            SolveConfig(q0=10.0, max_iter=2.5)
        with pytest.raises(ValueError):
            SolveConfig(q0=10.0, restarts=0.5)


class TestDiscreteFunctional:
    """F(c) = _SphereProblem.value(c) + lam*b*q0/(4*pi).

    omega_sq is the multiplier of the norm constraint,
    4*pi*(c.grad F(c))/q0 + 2*lam*b at the solution.
    """

    def test_zero_coefficients_leave_only_the_constant(self, basis, params, table2):
        assert _SphereProblem(basis, params).value(np.zeros(basis.m)) == 0.0
        # the reported functional value is F at the returned coefficients:
        # value() with the constant added back
        const = params.lam * params.b * 100.0 / (4.0 * math.pi)
        for n, sol in table2:
            problem = _SphereProblem(basis, replace(params, n=n))
            assert sol.f_value == problem.value(sol.coeffs) + const, n

    def test_small_norm_single_mode_leading_order(self, basis, params):
        # the first mode alone on the sphere: c_1^2 * W_11 = q0
        q0 = 1e-6
        a = np.zeros(basis.m)
        a[0] = math.sqrt(q0 / basis.w_matrix[0, 0])
        mat11 = (basis.k_matrix[0, 0] + basis.c_matrix[0, 0]) / basis.w_matrix[0, 0]
        value = _SphereProblem(basis, params).value(a)
        assert value == pytest.approx(0.5 * q0 * mat11, abs=1e-12)

    def test_even_in_the_coefficients(self, basis, params):
        problem = _SphereProblem(basis, params)
        a = sphere_point(basis, 100.0, seed=3)
        assert problem.value(a) == problem.value(-a)

    def test_nonlinear_homogeneity_degrees(self, basis, params):
        # with the quartic term switched off the remaining terms scale as
        # s (quadratic form) and s^3 (sextic integral) under a -> sqrt(s)*a
        quadratic = _SphereProblem(basis, params)
        quadratic.lam = 0.0
        sextic = _SphereProblem(basis, params)
        sextic.a_pot = 0.0
        sextic.mat = np.zeros_like(sextic.mat)
        a = sphere_point(basis, 4.0, seed=5)
        for s in (0.25, 4.0):
            b = math.sqrt(s) * a
            assert sextic.value(b) == pytest.approx(s**3 * sextic.value(a), rel=1e-12)
            assert quadratic.value(b) == pytest.approx(s * quadratic.value(a), rel=1e-12)

    def test_omega_sq_is_the_constraint_multiplier(self, basis, params, solve):
        # 4*pi*(a.grad F)/q0 + 2*lam*b is the field equation projected on
        # phi, with the model's U'(phi) as the reference
        sol = solve(100.0)
        a = np.array(sol.coeffs)
        phi = a @ basis.sin_nodes
        w_rho = basis.grid.weights * basis.grid.nodes
        projected = 4.0 * math.pi / 100.0 * (
            a @ basis.k_matrix @ a
            + params.n**2 * a @ basis.c_matrix @ a
            + w_rho @ (phi * potential_derivative(phi, params))
        )
        assert sol.omega_sq == pytest.approx(projected, rel=1e-12)

    def test_dimension_mismatch(self, basis, params):
        with pytest.raises(ValueError):
            _SphereProblem(basis, params).value(np.ones(3))


class TestFunctionalGradient:
    def test_zero_coefficients(self, basis, params):
        np.testing.assert_array_equal(
            _SphereProblem(basis, params).gradient(np.zeros(basis.m)), np.zeros(basis.m)
        )

    def test_quadratic_plus_nonlinear_decomposition(self, basis, params):
        # the gradient's nonlinear part is that of the sextic-quartic
        # integral, the difference of value() from its quadratic form
        problem = _SphereProblem(basis, params)
        a = sphere_point(basis, 100.0, seed=11)
        mat = basis.k_matrix + params.n**2 * basis.c_matrix
        g_nl = problem.gradient(a) - mat @ a
        step = 1e-4 * sphere_point(basis, 1.0, seed=12)
        d_nl = problem.value(a + step) - problem.value(a - step)
        d_nl -= 2.0 * step @ mat @ a
        assert d_nl == pytest.approx(2.0 * step @ g_nl, rel=1e-7)

    def test_matches_finite_differences_on_sphere(self, basis, params):
        worst = gradient_fd_check(basis, params, q0=100.0, seed=0)
        assert worst < 1e-4

    def test_finite_differences_free_of_cancellation(self):
        # differencing two absolute values of F gives 2.0e-4 at this point
        params = ModelParams(n=3, p=24.0)
        basis = build_basis(params, 60, build_grid(24.0, panels=48, order_per_panel=8))
        worst = gradient_fd_check(basis, params, q0=100.0, seed=0)
        assert worst < 1e-4

    def test_stacked_differences_match_one_candidate_at_a_time(self, basis, params):
        problem = _SphereProblem(basis, params)
        a = sphere_point(basis, 100.0, seed=3)
        phi_a = problem.phi(a)
        rng = np.random.default_rng(4)
        steps = np.concatenate((1e-6 * np.eye(basis.m), 0.1 * rng.standard_normal((5, basis.m))))
        stacked, phi_stacked = problem.potential_increment(phi_a, steps @ problem.sines)
        for step, df, phi_c in zip(steps, stacked, phi_stacked):
            one, phi_one = problem.potential_increment(phi_a, step @ problem.sines)
            # the stack sums in another order: agreement to roundoff
            assert df == pytest.approx(one, rel=1e-12)
            np.testing.assert_allclose(
                phi_c, phi_one, rtol=0, atol=1e-13 * np.abs(phi_one).max()
            )

    @pytest.mark.parametrize("kind", ["coordinate", "random"])
    def test_factored_difference_matches_the_expanded_sums(self, basis, params, kind):
        problem = _SphereProblem(basis, params)
        a = sphere_point(basis, 100.0, seed=5)
        phi_a = problem.phi(a)
        if kind == "coordinate":
            steps = 1e-6 * np.eye(basis.m)
        else:
            steps = 0.1 * np.random.default_rng(6).standard_normal((8, basis.m))
        dphi = steps @ problem.sines
        expanded = expanded_increment(problem, phi_a, dphi)
        stacked = problem.potential_increment(phi_a, dphi)[0]
        np.testing.assert_allclose(stacked, expanded, rtol=1e-12)
        for cand in a + steps:
            one = problem.delta(a, phi_a, cand, theta=0.3)[0]
            assert one == pytest.approx(expanded_delta(problem, a, phi_a, cand, 0.3), rel=1e-12)

    def test_stacked_starts_match_one_start_at_a_time(self, basis, params):
        problem = _SphereProblem(basis, params)
        a = sphere_point(basis, 100.0, seed=7)
        rng = np.random.default_rng(8)
        starts = np.concatenate(
            (a - 1e-6 * np.eye(basis.m), a + 0.1 * rng.standard_normal((5, basis.m)))
        )
        cands = np.concatenate(
            (a + 1e-6 * np.eye(basis.m), a + 0.1 * rng.standard_normal((5, basis.m)))
        )
        stacked, phi_stacked = problem.potential_increment(
            problem.phi(starts), (cands - starts) @ problem.sines
        )
        for start, cand, df, phi_c in zip(starts, cands, stacked, phi_stacked):
            one, phi_one = problem.potential_increment(
                problem.phi(start), (cand - start) @ problem.sines
            )
            assert df == pytest.approx(one, rel=1e-12)
            np.testing.assert_allclose(
                phi_c, phi_one, rtol=0, atol=1e-13 * np.abs(phi_one).max()
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fd_check_is_the_two_sided_difference(self, basis, params, seed):
        checked = gradient_fd_check(basis, params, q0=100.0, seed=seed)
        assert checked == pytest.approx(two_sided_reference(basis, params, seed), rel=0, abs=1e-12)

    def test_fd_check_is_the_two_sided_difference_at_a_finer_resolution(self):
        params = ModelParams(n=3, p=24.0)
        basis = build_basis(params, 120, build_grid(24.0, panels=96))
        checked = gradient_fd_check(basis, params, q0=100.0, seed=0)
        assert checked == pytest.approx(two_sided_reference(basis, params, 0), rel=0, abs=1e-12)

    def test_work_arrays_leave_the_difference_unchanged(self, basis, params):
        problem = _SphereProblem(basis, params)
        a = sphere_point(basis, 100.0, seed=9)
        phi_starts = problem.phi(a - 1e-6 * np.eye(basis.m))
        dphi = 2e-6 * problem.sines
        fresh, phi_fresh = problem.potential_increment(phi_starts, dphi.copy())
        work = list(np.full((_INCREMENT_WORK_ARRAYS,) + phi_starts.shape, np.nan))
        reused, phi_reused = problem.potential_increment(phi_starts, dphi.copy(), work)
        np.testing.assert_array_equal(reused, fresh)
        np.testing.assert_array_equal(phi_reused, phi_fresh)
        assert phi_reused is work[0]

    def test_fd_check_takes_one_difference_call_per_point(self, basis, params, monkeypatch):
        calls = []
        increment = _SphereProblem.potential_increment

        def counting(self, *args, **kwargs):
            calls.append(1)
            return increment(self, *args, **kwargs)

        monkeypatch.setattr(_SphereProblem, "potential_increment", counting)
        gradient_fd_check(basis, params, q0=100.0, seed=0)
        assert len(calls) == 10

    def test_fd_check_forms_no_multiplier_term(self, basis, params, monkeypatch):
        # the check differences F itself (theta = 0): it never calls the
        # shifted difference delta, and takes no product with W, which for
        # the m coordinate steps of a point would be an m x m x m product
        expected = gradient_fd_check(basis, params, q0=100.0, seed=0)
        init = _SphereProblem.__init__

        def without_gram(self, *args):
            init(self, *args)
            self.gram = None

        def refused(self, *args, **kwargs):
            raise AssertionError("the gradient check called delta")

        monkeypatch.setattr(_SphereProblem, "__init__", without_gram)
        monkeypatch.setattr(_SphereProblem, "delta", refused)
        assert gradient_fd_check(basis, params, q0=100.0, seed=0) == expected


class TestMinimize:
    def test_benchmark_norm_10(self, solve):
        sol = solve(10.0)
        assert sol.converged
        assert sol.omega_sq == pytest.approx(2.1755, abs=max(0.02, 0.02 * 2.1755))
        assert sol.phi_max == pytest.approx(0.1115, rel=0.02)

    def test_benchmark_norm_100(self, solve):
        sol = solve(100.0)
        assert sol.converged
        assert sol.omega_sq == pytest.approx(0.4287, abs=0.02)
        assert sol.phi_max == pytest.approx(0.9963, rel=0.02)

    def test_linear_limit(self, solve):
        sol = solve(0.01)
        expected = 2.2 + (bessel_first_zero(1) / 20.0) ** 2
        assert sol.omega_sq == pytest.approx(expected, abs=1e-3)

    def test_constraint_preserved_every_iteration(self, basis, params):
        drifts = []

        def watch(_it, coeffs, _f, _g):
            drifts.append(abs(w_norm_sq(basis, coeffs) - 100.0) / 100.0)

        minimize_on_sphere(basis, params, SolveConfig(q0=100.0), callback=watch)
        assert drifts and max(drifts) < 1e-12

    def test_callback_gradient_norm_is_the_new_iterates(self, basis, params):
        norms = []
        sol = minimize_on_sphere(
            basis, params, SolveConfig(q0=100.0), callback=lambda *step: norms.append(step[3])
        )
        assert sol.converged and norms[-1] == sol.grad_norm

    @pytest.mark.parametrize("q0", [100.0, 0.01])
    def test_stopping_test_measures_both_gradients_in_the_metric(self, basis, params, q0):
        # |v| = sqrt(v.W^-1.v), the Euclidean norm in orthonormal coordinates:
        # each reported norm is the tangent gradient's, and the descent stops
        # at the first iterate where it is <= grad_tol * max(1, |g|)
        problem = _SphereProblem(basis, params)
        steps = []
        sol = minimize_on_sphere(
            basis, params, SolveConfig(q0=q0),
            callback=lambda _i, c, _f, gt_norm: steps.append((c, gt_norm)),
        )

        def norm(v):
            return math.sqrt(float(v @ np.linalg.solve(basis.w_matrix, v)))

        met = []
        for c, gt_norm in steps:
            g = problem.gradient(c)
            gt = g - (float(c @ g) / q0) * (basis.w_matrix @ c)
            assert gt_norm == pytest.approx(norm(gt), rel=1e-8)
            met.append(gt_norm <= 1e-8 * max(1.0, norm(g)))
        assert sol.converged and met[-1] and not any(met[:-1])

    def test_monotone_descent(self, basis, params):
        values = []

        def watch(_it, _coeffs, f, _g):
            values.append(f)

        minimize_on_sphere(basis, params, SolveConfig(q0=100.0), callback=watch)
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_solution_constraint_and_sign(self, basis, params, solve):
        sol = solve(100.0)
        assert w_norm_sq(basis, sol.coeffs) == pytest.approx(100.0, rel=1e-10)
        phi = sol.profile
        # at m=60 the sine truncation leaves tail wiggles near -9e-8*phi_max
        # (they vanish by m=120); the strict positivity floor is checked at
        # higher resolution below
        assert phi.min() >= -1e-7 * sol.phi_max
        assert phi.max() == pytest.approx(sol.phi_max, rel=1e-12)

    def test_sign_normalization_floor_at_higher_resolution(self, params, grid):
        fine = build_basis(params, 90, grid)
        sol = minimize_on_sphere(fine, params, SolveConfig(q0=100.0))
        assert sol.profile.min() >= -1e-8 * sol.phi_max

    def test_trapezoid_start_reaches_same_minimum(self, basis, params, solve):
        # a flat-top trial profile instead of the cold candidates; at q0=10 it
        # has a lower F than the thin wall (which wins from q0=50 to 2000),
        # so the descent starts from it
        config = SolveConfig(q0=10.0, start_coeffs=trapezoid_coeffs(basis))
        start = _initial_coeffs(basis, params, config, _SphereProblem(basis, params))
        np.testing.assert_array_equal(start, config.start_coeffs)
        sol = minimize_on_sphere(basis, params, config)
        assert sol.converged
        assert sol.omega_sq == pytest.approx(solve(10.0).omega_sq, abs=1e-6)

    def test_custom_start(self, basis, params, solve):
        start = tuple(solve(100.0).coeffs)
        sol = minimize_on_sphere(basis, params, SolveConfig(q0=100.0, start_coeffs=start))
        assert sol.converged and sol.iterations <= 5

    def test_nonconvergence_is_flagged_with_gradient_norm(self, basis, params):
        sol = minimize_on_sphere(
            basis, params, SolveConfig(q0=100.0, max_iter=2, grad_tol=1e-14)
        )
        assert not sol.converged
        assert sol.grad_norm > 0.0

    def test_functional_value_taken_once_without_callback(self, basis, params, monkeypatch):
        # only the callback reads the running value, so a solve without one
        # evaluates F once, for f_value at the kept minimizer
        calls = []
        value = _SphereProblem.value

        def counting(self, a):
            calls.append(1)
            return value(self, a)

        monkeypatch.setattr(_SphereProblem, "value", counting)
        minimize_on_sphere(basis, params, SolveConfig(q0=100.0))
        assert len(calls) == 1
        minimize_on_sphere(basis, params, SolveConfig(q0=100.0), callback=lambda *_: None)
        assert len(calls) == 3

    def test_determinism(self, basis, params):
        cfg = SolveConfig(q0=50.0, restarts=2, rng_seed=123)
        one = minimize_on_sphere(basis, params, cfg)
        two = minimize_on_sphere(basis, params, cfg)
        np.testing.assert_array_equal(one.coeffs, two.coeffs)
        assert one.omega_sq == two.omega_sq


class TestDenseProfileMemory:
    """The dense profile is one FFT of length 4000, with no points x modes table.

    Such a table is 2001 x 60 x 8 bytes = 960 KB at m=60; the bound leaves
    room for about a dozen 2001-point vectors.
    """

    PEAK_BYTES = 200_000

    def test_post_solve_work_peak(self, basis, params):
        marks = []

        def mark(*_):
            tracemalloc.reset_peak()
            marks.append(tracemalloc.get_traced_memory()[0])

        tracemalloc.start()
        try:
            sol = minimize_on_sphere(basis, params, SolveConfig(q0=100.0), callback=mark)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.converged
        assert peak - marks[-1] < self.PEAK_BYTES

    def test_dense_profile_peak(self, basis, solve):
        coeffs = solve(100.0).coeffs
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            evaluate_uniform(basis, coeffs, PROFILE_POINTS - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < self.PEAK_BYTES

    def test_phi_max_is_the_dense_grid_maximum(self, basis, solve):
        sol = solve(100.0)
        rho, phi = np.linspace(0.0, basis.p, PROFILE_POINTS), sol.profile
        assert phi.size == PROFILE_POINTS
        assert np.array_equal(phi, evaluate_uniform(basis, sol.coeffs, PROFILE_POINTS - 1))
        assert sol.phi_max == np.max(np.abs(phi))
        # the sine series summed directly on the same radii
        freq = np.arange(1, basis.m + 1) * (math.pi / basis.p)
        direct = np.sin(rho[:, None] * freq) @ sol.coeffs
        assert sol.phi_max == pytest.approx(np.max(np.abs(direct)), rel=1e-14)


class TestHessian:
    """The Hessian from cosine moments against the direct m x N x m product."""

    @pytest.mark.parametrize("m, panels", [(60, 48), (180, 72)])
    def test_matches_the_direct_product(self, params, m, panels):
        # measured worst over these points: 1.0e-14 (m=60), 1.7e-14 (m=180)
        # of the largest entry of the nonlinear part
        built = build_basis(params, m, build_grid(20.0, panels=panels, order_per_panel=8))
        problem = _SphereProblem(built, params)
        for q0, seed in [(100.0, 0), (100.0, 1), (1000.0, 2)]:
            a = sphere_point(built, q0, seed)
            phi = problem.phi(a)
            ph2 = phi * phi
            curv = problem.lam * problem.w_rho * ph2 * (30.0 * ph2 - 12.0 * problem.a_pot)
            direct = (problem.sines * curv) @ problem.sines.T
            got = problem.hessian(phi) - problem.mat
            assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_reduced_hessian_projects_the_shifted_hessian(self, basis, params):
        problem = _SphereProblem(basis, params)
        a = sphere_point(basis, 100.0, seed=3)
        got = problem.reduced_hessian(a, problem.phi(a), 0.7)
        shifted = problem.hessian(problem.phi(a)) - 0.7 * basis.w_matrix
        tangent = tangent_basis(basis, a)
        np.testing.assert_allclose(
            tangent.T @ got @ tangent, tangent.T @ shifted @ tangent,
            rtol=0.0, atol=1e-13 * np.abs(shifted).max(),
        )
        # along the normal u = a/sqrt(a.W.a), R.u = mu*W.u with
        # mu = |B|_inf * |u|^2, so that u.R.u/u.u = |B|_inf
        unit = a / math.sqrt(w_norm_sq(basis, a))
        mu = np.max(np.sum(np.abs(shifted), axis=1)) * (unit @ unit)
        np.testing.assert_allclose(
            got @ unit, mu * (basis.w_matrix @ unit), rtol=0.0, atol=1e-13 * mu
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quadratic_form_splits_into_tangent_and_normal_parts(self, basis, params, seed):
        # d = t + alpha*u with t tangent (u.W.t = 0): d.R.d = t.(H - theta*W).t + mu*alpha^2,
        # so R is positive definite exactly where H - theta*W is on the tangent space
        problem = _SphereProblem(basis, params)
        rng = np.random.default_rng(seed)
        a = sphere_point(basis, 100.0, seed=10 + seed)
        theta = float(rng.uniform(-1.0, 1.0))
        got = problem.reduced_hessian(a, problem.phi(a), theta)
        shifted = problem.hessian(problem.phi(a)) - theta * basis.w_matrix
        unit = a / math.sqrt(w_norm_sq(basis, a))
        mu = np.max(np.sum(np.abs(shifted), axis=1)) * (unit @ unit)
        for _ in range(5):
            t = tangent_basis(basis, a) @ rng.standard_normal(basis.m - 1)
            alpha = float(rng.standard_normal())
            d = t + alpha * unit
            expected = t @ shifted @ t + mu * alpha**2
            scale = np.abs(shifted).max() * float(d @ d) + mu * alpha**2
            assert abs(d @ got @ d - expected) <= 1e-13 * scale

    def test_certifies_where_only_the_reduced_hessian_is_positive(
        self, basis, params, monkeypatch
    ):
        # with the metric W = I, B = [[-1, 0.9], [0.9, 0.5]] + I is positive
        # definite on the tangent space of x = e_1, but B + mu*e_1.e_1^T
        # (mu = 1.9, the largest row sum) leads with [[0.9, 0.9], [0.9, 0.5]]
        # and is indefinite
        m = basis.m
        block = np.eye(m)
        block[:2, :2] = [[-1.0, 0.9], [0.9, 0.5]]
        bordered = block.copy()
        bordered[0, 0] += 1.9
        assert np.linalg.eigvalsh(bordered).min() < 0.0
        problem = _SphereProblem(basis, params)
        monkeypatch.setattr(problem, "hessian", lambda phi: block.copy())
        monkeypatch.setattr(problem, "gram", np.eye(m))
        x = 10.0 * np.eye(m)[0]
        np.linalg.cholesky(problem.reduced_hessian(x, problem.phi(x), 0.0))

        def no_eigh(*_):
            raise AssertionError("eigen-modified step taken")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        gt = np.zeros(m)
        gt[1:3] = 1.0
        d = problem.newton_direction(x, problem.phi(x), gt, 0.0)
        np.testing.assert_allclose(d[:3], [0.0, 2.0, 1.0], rtol=1e-15, atol=0.0)
        assert not d[3:].any()


class TestNewtonDirection:
    @staticmethod
    def fd_hessian(basis, params, a, h=1e-5):
        gradient = _SphereProblem(basis, params).gradient
        cols = []
        for i in range(basis.m):
            e = np.zeros(basis.m)
            e[i] = h
            cols.append((gradient(a + e) - gradient(a - e)) / (2.0 * h))
        hess = np.array(cols)
        return 0.5 * (hess + hess.T)

    def test_solves_the_bordered_kkt_system(self, basis, params, solve):
        # [[H - theta*W, W.x], [x^T.W, 0]] [d; nu] = [gt; 0], H by central
        # differences of the gradient, at a point near the minimizer, where
        # the reduced Hessian is positive
        q0 = 100.0
        problem = _SphereProblem(basis, params)
        x = problem.onto_sphere(np.array(solve(q0).coeffs) + 1e-2 * sphere_point(basis, 1.0, seed=7), q0)
        g = problem.gradient(x)
        theta = float(x @ g) / q0
        wx = basis.w_matrix @ x
        gt = g - theta * wx
        d = problem.newton_direction(x, problem.phi(x), gt, theta)
        assert d is not None
        m = basis.m
        kkt = np.zeros((m + 1, m + 1))
        kkt[:m, :m] = self.fd_hessian(basis, params, x) - theta * basis.w_matrix
        kkt[:m, m] = kkt[m, :m] = wx
        reference = np.linalg.solve(kkt, np.concatenate([gt, [0.0]]))[:m]
        np.testing.assert_allclose(
            d, reference, rtol=1e-6, atol=1e-8 * np.abs(reference).max()
        )
        assert abs(float(wx @ d)) <= 1e-10 * np.linalg.norm(wx) * np.linalg.norm(d)

    def test_eigen_modified_step_on_an_indefinite_reduced_hessian(
        self, basis, params, solve
    ):
        q0 = 100.0
        x = np.array(solve(q0).coeffs)
        problem = _SphereProblem(basis, params)
        g = problem.gradient(x)
        wx = basis.w_matrix @ x
        gt = g - float(x @ g) / q0 * wx
        # a multiplier above the whole spectrum of the pencil (H, W) leaves
        # H - theta*W negative definite on the tangent space, so the
        # Cholesky fails
        theta = 1e4
        d = problem.newton_direction(x, problem.phi(x), gt, theta)
        assert abs(float(wx @ d)) <= 1e-12 * np.linalg.norm(wx) * np.linalg.norm(d)
        assert float(d @ gt) > 0.0
        tangent = tangent_basis(basis, x)
        block = self.fd_hessian(basis, params, x) - theta * basis.w_matrix
        assert np.linalg.eigvalsh(tangent.T @ block @ tangent).max() < 0.0
        # the reference is L^-T.|L^-1.R.L^-T|^-1.L^-1.gt, W = L.L^T, on
        # R = P^T.B.P + mu*(W.u).(W.u)^T, B by central differences, less its
        # component along u
        unit = x / math.sqrt(float(x @ wx))
        w_unit = basis.w_matrix @ unit
        proj = np.eye(basis.m) - np.outer(unit, w_unit)
        mu = np.max(np.sum(np.abs(block), axis=1)) * (unit @ unit)
        r = proj.T @ block @ proj + mu * np.outer(w_unit, w_unit)
        low = basis.w_cholesky
        evals, evecs = np.linalg.eigh(np.linalg.solve(low, np.linalg.solve(low, r).T))
        unit_step = evecs @ ((evecs.T @ np.linalg.solve(low, gt)) / np.abs(evals))
        reference = np.linalg.solve(low.T, unit_step)
        reference -= float(w_unit @ reference) * unit
        np.testing.assert_allclose(
            d, reference, rtol=1e-8, atol=1e-10 * np.abs(reference).max()
        )


class TestBranchTangent:
    @pytest.mark.parametrize("p, q0", [(20.0, 10.0), (20.0, 100.0), (20.0, 1000.0), (8.0, 150.0)])
    def test_matches_central_differences_of_minimizers(self, p, q0):
        # c' against (c(q0 + h) - c(q0 - h))/(2h) and c'' against
        # (c(q0 + h) - 2c(q0) + c(q0 - h))/h^2 in the W norm, h = 1e-3*q0:
        # measured 1.3e-6..1.3e-5 and 1.9e-6..1.9e-5 (largest at q0=1000),
        # also at p=8, q0=150, next to the minimum of omega^2(q0). Halving h
        # divides both by 3.996..4.000, so the gap is the O(h^2) truncation
        params = ModelParams(p=p)
        basis = build_basis(params, 60, build_grid(p, panels=48, order_per_panel=8))

        def solve(q):
            sol = minimize_on_sphere(basis, params, SolveConfig(q0=q, grad_tol=1e-12))
            assert sol.converged, q
            return sol.coeffs

        centre = solve(q0)
        first, second = branch_derivatives(basis, params, centre, q0)
        errors = []
        for h in (1e-3 * q0, 5e-4 * q0):
            lower, upper = solve(q0 - h), solve(q0 + h)
            errors.append([
                math.sqrt(w_norm_sq(basis, fd - exact) / w_norm_sq(basis, exact))
                for fd, exact in (
                    ((upper - lower) / (2.0 * h), first),
                    ((upper - 2.0 * centre + lower) / h**2, second),
                )
            ])
        assert errors[0][0] < 2e-5 and errors[0][1] < 3e-5
        for coarse, fine in zip(*errors):
            assert 3.9 < coarse / fine < 4.1

    def test_no_tangent_where_the_reduced_hessian_is_indefinite(
        self, basis, params, solve, monkeypatch
    ):
        monkeypatch.setattr("qvortex.solver._passes_cholesky", lambda r: False)
        assert branch_derivatives(basis, params, solve(100.0).coeffs, 100.0) is None


class TestColdStart:
    """A solve without start_coeffs starts from the lowest-F of three profiles,
    one with start_coeffs from the lower of that start and the thin wall."""

    @pytest.mark.parametrize(
        "n, q0, winner", [(1, 0.01, "linear"), (1, 100.0, "thin_wall"), (4, 100.0, "bump")]
    )
    def test_starts_from_the_lowest_candidate(self, basis, params, n, q0, winner):
        row = replace(params, n=n)
        problem = _SphereProblem(basis, row)
        rho, scale = basis.grid.nodes, basis.p / 4.0
        wall = math.sqrt(q0 / (math.pi * row.a_pot)) + n
        candidates = {
            "bump": rho**n * (basis.p - rho) * np.exp(-(((rho - scale) / scale) ** 2)),
            "thin_wall": np.tanh(rho) ** n * (1.0 - np.tanh(rho - wall)),
        }
        candidates = {k: _project_to_basis(basis, v) for k, v in candidates.items()}
        candidates["linear"] = linear_mode(basis, problem)
        units = {k: a / math.sqrt(w_norm_sq(basis, a)) for k, a in candidates.items()}
        values = {k: problem.value(math.sqrt(q0) * u) for k, u in units.items()}
        assert min(values, key=values.get) == winner
        start = _initial_coeffs(basis, row, SolveConfig(q0=q0), problem)
        cosine = abs(units[winner] @ basis.w_matrix @ start) / math.sqrt(w_norm_sq(basis, start))
        assert cosine == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_ground_mode_is_the_lowest_generalized_eigenvector(self, basis, params, n):
        # measured 1 - cos at most 4.4e-16 against scipy's eigh of the pencil
        problem = _SphereProblem(basis, replace(params, n=n))
        got, expected = _ground_mode(problem), linear_mode(basis, problem)
        cosine = abs(got @ basis.w_matrix @ expected) / math.sqrt(
            w_norm_sq(basis, got) * w_norm_sq(basis, expected)
        )
        assert cosine == pytest.approx(1.0, abs=1e-13)

    def test_a_shape_that_projects_to_zero_is_not_offered(self):
        # at p = 1e6 the thin wall ends inside the first Gauss node
        params = ModelParams(p=1e6)
        basis = build_basis(params, 60, build_grid(1e6, panels=48))
        assert not _thin_wall_nodes(basis.grid.nodes, 1, 100.0, params.a_pot).any()
        problem = _SphereProblem(basis, params)
        start = _initial_coeffs(basis, params, SolveConfig(q0=100.0), problem)
        assert np.isfinite(problem.onto_sphere(start, 100.0)).all()

    def test_projection_in_the_metric_recovers_a_sine_series(self, basis):
        c = sphere_point(basis, 100.0, seed=2)
        got = _project_to_basis(basis, c @ basis.sin_nodes)
        np.testing.assert_allclose(got, c, rtol=0.0, atol=1e-12 * np.abs(c).max())

    def test_a_configured_start_competes_with_the_thin_wall(self, basis, params, solve):
        # the trapezoid has a higher F than the thin wall at q0=100, the
        # converged q0=100 minimizer a lower one
        problem = _SphereProblem(basis, params)
        wall = _project_to_basis(basis, _thin_wall_nodes(basis.grid.nodes, 1, 100.0, params.a_pot))
        config = SolveConfig(q0=100.0, start_coeffs=trapezoid_coeffs(basis))
        np.testing.assert_array_equal(_initial_coeffs(basis, params, config, problem), wall)
        config = SolveConfig(q0=100.0, start_coeffs=tuple(solve(100.0).coeffs))
        start = _initial_coeffs(basis, params, config, problem)
        np.testing.assert_array_equal(start, solve(100.0).coeffs)


class TestRefinedUnitStep:
    """After an accepted unit step, one more trial at the minimizer eta* of the
    quadratic through F(0), F'(0) = -slope and F(1), where |eta* - 1| > 0.1."""

    @pytest.mark.parametrize(
        "p, n, q0, outcomes",
        [(20.0, 3, 100.0, {"unit", "kept", "dropped", "backtracked"}),
         (24.0, 4, 100.0, {"unit", "kept", "dropped", "capped", "backtracked"})],
        ids=["p20-n3", "p24-n4"],
    )
    def test_trials_of_each_step(self, p, n, q0, outcomes):
        # cold solves whose unit steps are refined and kept, refined and
        # dropped, refined at the cap eta* = 2, left alone, or backtracked
        params = ModelParams(n=n, p=p)
        basis = build_basis(params, 60, build_grid(p, panels=48, order_per_panel=8))
        problem = _SphereProblem(basis, params)
        x0 = _initial_coeffs(basis, params, SolveConfig(q0=q0), problem)
        starts, trials = [], []
        delta = problem.delta

        def spy(x, phi_x, cand, theta=0.0):
            df, phi_c = delta(x, phi_x, cand, theta)
            if x.any():  # not the callback's F(start), taken from the origin
                if not starts or starts[-1][0] is not x:
                    starts.append((x, phi_x, theta))
                    trials.append([])
                trials[-1].append((cand, df))
            return df, phi_c

        problem.delta = spy
        fs = []
        x_end, _, iterations, converged = _descend(
            x0, q0, problem, 1e-8, 200, lambda k, c, f, g: fs.append(f))
        assert converged and len(starts) == iterations
        assert all(np.diff(fs) < 0.0) and fs[-1] < problem.value(problem.onto_sphere(x0, q0))

        seen = set()
        nexts = [x for x, _, _ in starts[1:]] + [x_end]
        for (x, phi_x, theta), tried, x_next in zip(starts, trials, nexts):
            # the step _descend takes, in its own arithmetic
            g = problem.gradient(x, phi_x)
            gt = g - theta * (problem.gram @ x)
            d = problem.newton_direction(x, phi_x, gt, theta)
            assert np.dot(d, gt) > 0.0
            slope = float(np.dot(d, gt))
            (unit, df), extra = tried[0], tried[1:]
            np.testing.assert_array_equal(unit, problem.onto_sphere(x - d, q0))
            if df > -1e-4 * slope:  # backtracking by halves, never refined
                for k, (cand, _) in enumerate(extra, start=1):
                    np.testing.assert_array_equal(cand, problem.onto_sphere(x - 0.5**k * d, q0))
                assert x_next is extra[-1][0]
                seen.add("backtracked")
                continue
            rho = -2.0 * df / slope
            eta_star = min(1.0 / (2.0 - rho), 2.0) if rho < 2.0 else None
            if eta_star is None or abs(eta_star - 1.0) <= 0.1:
                assert extra == [] and x_next is unit
                seen.add("unit")
                continue
            [(refined, df_refined)] = extra
            np.testing.assert_array_equal(refined, problem.onto_sphere(x - eta_star * d, q0))
            kept = df_refined < df
            assert x_next is (refined if kept else unit)
            seen.add("kept" if kept else "dropped")
            if eta_star == 2.0:
                seen.add("capped")
        assert seen == outcomes


class TestSolveCost:
    """Step budgets: first-order descent alone needs about 10^5 steps on this
    grid and reaches max_iter in some runs."""

    def test_table2_takes_fewer_steps_than_from_the_ring_bump(self, table2):
        # cold rows take 5, 5, 14, 14, 14 steps (13, 14, 14, 14, 14 from the
        # ring bump alone); continued rows take 5, 7, 7, 8, 10
        assert sum(sol.iterations for _, sol in table2) < 56

    def test_table1_continues_in_few_steps(self, basis, params, table1):
        # rows take 3, 6, 5, 5, 5, 5 steps (4, 6, 6, 5, 5, 5 without the
        # refined unit step); each row after the first starts from the thin
        # wall, which has a lower F than the previous row's minimizer,
        # rescaled or predicted along the branch tangent. Started from that
        # minimizer rescaled they take 3, 14, 6, 10, 11, 14
        for q0, sol in table1[0]:
            assert sol.converged, q0
            certify_minimum(basis, params, sol, q0)
        assert sum(sol.iterations for _, sol in table1[0]) == 29

    def test_dispersion_sweep_continues_along_the_branch_tangent(self, basis, params):
        # the default dispersion sweep, 25 log-spaced q0 in [10, 1000], takes
        # 87 steps with each row predicted to second order along the branch,
        # 3, 4, 6, 5, 3, 2 x 6, 3 x 6, 4 x 4, 5 x 4 by row; 97 from the
        # Euler predictor (99 also without the refined unit step), and
        # without both 115 from the previous minimizer rescaled and 108 from
        # a secant in log q0
        q0_list = np.geomspace(10.0, 1000.0, 25).tolist()
        solutions = sweep_q0(params, basis, q0_list, SolveConfig(q0=q0_list[0]))
        assert all(sol.converged for sol in solutions)
        assert sum(sol.iterations for sol in solutions) <= 87

    def test_verify_points_take_few_steps(self):
        # verify's 18 solves, q0 = 100 and 0.01 at n = 1..3 x p = 16, 20, 24
        # on verify's resolution: 71 steps, 78 without the refined unit step
        total = 0
        for p in (16.0, 20.0, 24.0):
            basis = build_basis(ModelParams(p=p), 60, build_grid(p, panels=48))
            for n in (1, 2, 3):
                for q0 in (100.0, 0.01):
                    sol = minimize_on_sphere(basis, ModelParams(n=n, p=p), SolveConfig(q0=q0))
                    assert sol.converged, (p, n, q0)
                    total += sol.iterations
        assert total <= 71

    def test_wide_disk_winding_sweep_continues_in_few_steps(self):
        # at p=40 cold rows take 5, 5, 7, 34, 34 steps; continued rows 5, 7, 7, 8, 10
        params = ModelParams(p=40.0)
        basis = build_basis(params, 60, build_grid(40.0, panels=48, order_per_panel=8))
        solutions = sweep_n(params, basis, [1, 2, 3, 4, 5], SolveConfig(q0=100.0))
        for n, sol in zip([1, 2, 3, 4, 5], solutions):
            assert sol.converged, n
            certify_minimum(basis, replace(params, n=n), sol, 100.0)
        assert sum(sol.iterations for sol in solutions) <= 45

    def test_linear_limit_converges_from_the_linear_mode(self, solve):
        # the ground mode is the q0 -> 0 minimizer; from the ring bump it takes 4 steps
        sol = solve(0.01)
        assert sol.converged and sol.iterations <= 2

    def test_warm_start_next_to_a_saddle_leaves_it_quickly(self, basis, params):
        # the q0=12.12 minimizer rescaled onto the q0=14.68 sphere, where the
        # reduced Hessian has a small negative eigenvalue, so the first steps
        # are eigen-modified (9 steps; a norm sweep predicts that row along
        # the branch instead, where R is positive, and takes 6)
        q0_list = list(np.geomspace(10.0, 1000.0, 25)[:3])
        first, second = sweep_q0(params, basis, q0_list[:2], SolveConfig(q0=q0_list[0]))
        config = SolveConfig(q0=q0_list[2], start_coeffs=tuple(second.coeffs))
        solution = minimize_on_sphere(basis, params, config)
        assert first.converged and second.converged and solution.converged
        assert solution.iterations <= 30

    def test_norm_winding_grid_converges_well_inside_max_iter(self, basis, params):
        total = 0
        for n in (1, 2, 3, 4, 5):
            for q0 in (10.0, 100.0, 1000.0):
                config = SolveConfig(q0=q0)
                sol, runs = solve_with_run_lengths(basis, replace(params, n=n), config)
                assert sol.converged, (n, q0)
                assert sum(runs) == sol.iterations
                assert max(runs) < config.max_iter, (n, q0, runs)
                total += sol.iterations
        assert total <= 400

    def test_fine_resolution_high_norm_converges(self):
        params = ModelParams(n=3)
        basis = build_basis(params, 180, build_grid(20.0, panels=72, order_per_panel=8))
        config = SolveConfig(q0=1000.0)
        sol, runs = solve_with_run_lengths(basis, params, config)
        assert sol.converged
        assert max(runs) < config.max_iter


class TestOneDescentRun:
    """A default solve is one descent run; it must end at a minimum, not a saddle."""

    def test_table_rows_are_certified_minima(self, basis, params, table1, table2):
        rows = [(params, q0, sol) for q0, sol in table1[0]]
        rows += [(replace(params, n=n), 100.0, sol) for n, sol in table2]
        for row_params, q0, sol in rows:
            assert sol.converged
            certify_minimum(basis, row_params, sol, q0)

    def test_restarts_reproduce_the_default_solve(self):
        # a seeded sample of the valid region: q0 >= 10 lies above the norm
        # threshold pi*|n|/(a_pot*lam) for every n <= 6
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            p = float(rng.uniform(8.0, 40.0))
            q0 = float(np.exp(rng.uniform(np.log(10.0), np.log(2000.0))))
            params = ModelParams(n=n, p=p)
            basis = build_basis(params, 60, build_grid(p, panels=48, order_per_panel=8))
            one = minimize_on_sphere(basis, params, SolveConfig(q0=q0))
            kept = minimize_on_sphere(basis, params, SolveConfig(q0=q0, restarts=2))
            assert one.converged and kept.converged, (n, p, q0)
            certify_minimum(basis, params, one, q0)
            assert one.omega_sq == pytest.approx(kept.omega_sq, abs=1e-7), (n, p, q0)


class TestModelBoundsOnSolutions:
    def test_necessary_condition_and_ceiling(self, params, solve):
        edge = 2.0 * params.lam * params.b + params.n**2 / params.p**2
        floor = 2.0 * params.lam * (params.b - params.a_pot**2 / 3.0) + params.n**2 / params.p**2
        for q0 in (10.0, 50.0, 100.0):
            sol = solve(q0)
            assert sol.converged
            assert sol.omega_sq > floor
            if sol.omega_sq < edge:
                assert sol.phi_max < math.sqrt(2.0 * params.a_pot / 3.0)

    def test_decay_envelope_default_inner_radius(self, params, solve):
        sol = solve(100.0)
        applicable, ok, worst = check_decay_envelope(sol.profile, sol.omega_sq, params)
        assert applicable and ok, f"worst excess {worst}"

    def test_decay_envelope_does_not_apply_at_a_nan_frequency(self, params, solve):
        # an overflowed solve reports omega_sq = NaN, which has no decay rate
        assert check_decay_envelope(solve(100.0).profile, math.nan, params) == (False, True, 0.0)

    def test_decay_envelope_higher_winding(self, solve):
        sol = solve(100.0, n=2)
        applicable, ok, worst = check_decay_envelope(sol.profile, sol.omega_sq, ModelParams(n=2))
        assert applicable and ok, f"worst excess {worst}"


EDGE = decay_edge(ModelParams())


class TestCheckSolution:
    # (omega_sq, phi_max or None for the solution's own, q0) and the expected
    # necessary pass, (pass, applicable) of the ceiling and of the threshold
    @pytest.mark.parametrize(
        "omega_sq, phi_max, q0, necessary, ceiling, threshold",
        [
            (0.4, None, 100.0, True, (True, True), (True, True)),
            (-0.5, None, 100.0, False, (True, True), (True, True)),
            (0.4, 1.0, 100.0, True, (True, True), (True, True)),
            (0.4, 1.2, 100.0, True, (False, True), (True, True)),
            (3.0, 1.2, 100.0, True, (True, False), (True, False)),
            (0.4, None, 1.0, True, (True, True), (False, True)),
            (2.3, None, 1.0, True, (True, False), (True, False)),
            # either side of the decay edge 2*lam*b + n^2/p^2
            (math.nextafter(EDGE, 0.0), 1.2, 100.0, True, (False, True), (True, False)),
            (EDGE, 1.2, 100.0, True, (True, False), (True, False)),
        ],
    )
    def test_verdicts(
        self, params, solve, omega_sq, phi_max, q0, necessary, ceiling, threshold
    ):
        sol = solve(100.0)
        sol = replace(sol, omega_sq=omega_sq, phi_max=phi_max or sol.phi_max)
        checks = check_solution(sol, q0, params)
        verdict = {name: (c["pass"], c.get("applicable")) for name, c in checks.items()}
        # of these rows only omega_sq = 0.4 lies inside the window (0.2, 2.2)
        assert verdict["existence_window"] == (omega_sq == 0.4, None)
        assert verdict["necessary_condition"] == (necessary, None)
        assert verdict["amplitude_ceiling"] == ceiling
        assert verdict["norm_threshold"] == threshold
        # the ceiling and the decay envelope apply on the same side of the edge
        assert verdict["decay_envelope"][1] == ceiling[1]
        assert checks["decay_envelope"]["p0"] == 0.75 * params.p

    @pytest.mark.parametrize("edge, inward", [("omega_sq_min", math.inf), ("omega_sq_max", 0.0)])
    def test_existence_window_is_open(self, params, solve, edge, inward):
        edge = getattr(theory_bounds(params), edge)
        for omega_sq, inside in ((edge, False), (math.nextafter(edge, inward), True)):
            sol = replace(solve(100.0), omega_sq=omega_sq)
            assert check_solution(sol, 100.0, params)["existence_window"]["pass"] is inside


class TestResidualError:
    def test_zero_field_is_exact(self, basis, params):
        assert residual_error(np.zeros(basis.m), 1.23, basis, params) == 0.0

    def test_benchmark_norm_10_is_small(self, solve):
        assert solve(10.0).residual_error < 5e-3

    def test_decreases_with_basis_size(self, params, grid):
        values = []
        for m in (30, 60, 90):
            b = build_basis(params, m, grid)
            sol = minimize_on_sphere(b, params, SolveConfig(q0=100.0))
            assert sol.converged
            values.append(sol.residual_error)
        assert values[0] > values[1] > values[2]

    def test_matches_the_derivative_tables(self, basis, params, solve):
        # the residual summed on the basis' sine and cosine tables against
        # the same sum over s, s' and s'' tabulated with np.sin and np.cos
        rho = basis.grid.nodes
        freq = np.arange(1, basis.m + 1) * (math.pi / 20.0)
        sines = np.sin(freq[:, None] * rho)
        d1 = freq[:, None] * np.cos(freq[:, None] * rho)
        d2 = -(freq[:, None] ** 2) * sines
        points = [(solve(100.0, n).coeffs, solve(100.0, n).omega_sq, n) for n in (1, 3, 5)]
        points.append((sphere_point(basis, 100.0, seed=4), 1.0, 1))
        for a, omega_sq, n in points:
            row_params = replace(params, n=n)
            phi = a @ sines
            r = (a @ d2 + (a @ d1) / rho - n**2 * phi / rho**2 + omega_sq * phi
                 - potential_derivative(phi, row_params))
            expected = float(np.sqrt(np.dot(basis.grid.weights, r * r))) / 20.0
            got = residual_error(a, omega_sq, basis, row_params)
            assert got == pytest.approx(expected, rel=1e-10)
