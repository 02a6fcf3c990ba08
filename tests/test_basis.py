import math

import numpy as np
import pytest

from qvortex import (
    ModelParams,
    SolveConfig,
    bessel_first_zero,
    build_basis,
    build_grid,
    evaluate,
    evaluate_derivatives,
    minimize_on_sphere,
)
from qvortex.basis import _inverse_cholesky, evaluate_uniform


def rand_coeffs(m, radius=10.0, seed=7):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m)
    return radius * v / np.linalg.norm(v)


class TestBuildBasis:
    def test_first_mode_normalization(self, basis):
        # 1/sqrt(4*pi * P^2/4) = 1/(P*sqrt(pi))
        assert basis.gs_matrix[0, 0] == pytest.approx(
            1.0 / (20.0 * math.sqrt(math.pi)), rel=1e-10
        )

    def test_lower_triangular(self, basis):
        assert np.allclose(basis.gs_matrix, np.tril(basis.gs_matrix))

    @pytest.mark.parametrize("m, panels", [(60, 48), (180, 72)])
    def test_orthonormality_residual(self, params, m, panels):
        built = build_basis(params, m, build_grid(20.0, panels=panels, order_per_panel=8))
        assert built.orthonormality_residual < 1e-8
        g = built.gs_matrix
        assert np.array_equal(g, np.tril(g))
        assert np.all(np.diag(g) > 0.0)

    @pytest.mark.parametrize("m, panels", [(60, 48), (180, 72)])
    def test_cosine_table(self, params, m, panels):
        # rows past 8 come from the doubling recurrences; measured against
        # np.cos: 3.7e-14 (m=60) and 1.5e-13 (m=180), np.sin: 1.9e-14 and 5.7e-14
        built = build_basis(params, m, build_grid(20.0, panels=panels, order_per_panel=8))
        x = built.grid.nodes * (math.pi / 20.0)
        direct = np.cos(np.arange(2 * m + 1)[:, None] * x)
        assert built.cos_nodes.shape == (2 * m + 1, x.size)
        assert np.all(built.cos_nodes[0] == 1.0)
        assert np.max(np.abs(built.cos_nodes - direct)) < 1e-12
        assert built.sin_nodes.shape == (m, x.size)
        assert np.max(np.abs(built.sin_nodes - np.sin(np.arange(1, m + 1)[:, None] * x))) < 1e-12

    def test_outputs_read_only(self, basis):
        for name in ("gs_matrix", "k_matrix", "c_matrix", "psi_nodes", "sin_nodes", "cos_nodes"):
            arr = getattr(basis, name)
            assert not arr.flags.writeable, name
            assert arr.flags.c_contiguous and arr.dtype == np.float64, name

    def test_gram_matrix_is_identity(self, basis):
        w_rho = basis.grid.weights * basis.grid.nodes
        gram = 4.0 * math.pi * (basis.psi_nodes * w_rho) @ basis.psi_nodes.T
        assert np.max(np.abs(gram - np.eye(basis.m))) < 1e-8

    def test_orthogonalization_cancels_raw_overlap(self, params, grid):
        two = build_basis(params, 2, grid)
        w_rho = grid.weights * grid.nodes
        s1 = np.sin(np.pi * grid.nodes / 20.0)
        s2 = np.sin(2.0 * np.pi * grid.nodes / 20.0)
        raw = 4.0 * math.pi * np.dot(w_rho, s1 * s2)
        # closed form -(32/9)*P^2/pi; nonzero by a wide margin
        assert raw == pytest.approx(-(32.0 / 9.0) * 400.0 / math.pi, rel=1e-8)
        pair = 4.0 * math.pi * np.dot(w_rho, (two.gs_matrix[0] @ [s1, s2]) * (two.gs_matrix[1] @ [s1, s2]))
        assert abs(pair) < 1e-10

    def test_matrices_symmetric_positive_definite(self, basis):
        assert np.max(np.abs(basis.k_matrix - basis.k_matrix.T)) < 1e-12
        assert np.max(np.abs(basis.c_matrix - basis.c_matrix.T)) < 1e-12
        assert np.linalg.eigvalsh(basis.k_matrix)[0] > 0.0
        assert np.linalg.eigvalsh(basis.c_matrix)[0] > 0.0

    def test_matrices_match_direct_recomputation(self, params):
        # K and C from the cosine moments against the products of psi' and psi
        # sampled with np.cos and np.sin; measured worst for K: 9e-15 (m=60)
        # and 2.2e-14 (m=180) of its largest entry
        for m, panels in [(60, 48), (180, 72)]:
            built = build_basis(params, m, build_grid(20.0, panels=panels, order_per_panel=8))
            w = built.grid.weights
            rho = built.grid.nodes
            freq = np.arange(1, m + 1) * (math.pi / 20.0)
            dpsi = (built.gs_matrix * freq) @ np.cos(freq[:, None] * rho)
            psi = built.gs_matrix @ np.sin(freq[:, None] * rho)
            k_direct = (dpsi * (w * rho)) @ dpsi.T
            c_direct = (psi * (w / rho)) @ psi.T
            assert np.max(np.abs(k_direct - built.k_matrix)) < 1e-13 * np.max(np.abs(k_direct))
            assert np.max(np.abs(c_direct - built.c_matrix)) < 1e-13 * np.max(np.abs(c_direct))

    @pytest.mark.parametrize("n", [1, 2])
    def test_smallest_eigenvalue_matches_bessel_zero(self, params, grid, n):
        small = build_basis(params, 40, grid)
        mat = small.k_matrix + n**2 * small.c_matrix
        mu = np.linalg.eigvalsh(mat)[0]
        expected = (bessel_first_zero(n) / 20.0) ** 2 / (4.0 * math.pi)
        assert mu == pytest.approx(expected, rel=0.01)

    def test_grid_too_coarse_rejected(self, params):
        coarse = build_grid(20.0, panels=2, order_per_panel=8)
        with pytest.raises(ValueError, match="nodes per wavelength"):
            build_basis(params, 60, coarse)

    def test_mismatched_radius_rejected(self, grid):
        with pytest.raises(ValueError, match="does not match"):
            build_basis(ModelParams(p=10.0), 10, grid)

    def test_degenerate_metric_pivot_error(self):
        with pytest.raises(RuntimeError, match="pivot not positive.*too coarse"):
            _inverse_cholesky(np.ones((3, 3)))
        # w = L @ L.T for L the identity except its last row (1, 0, .., t, s)
        # with s**2 = 2**-40 - t**2 ~ 2**-91: positive definite, and the
        # blocked factorization subtracts the 1 and the t**2 from w[-1, -1]
        # in separate updates, so it succeeds with a last pivot of ~2e-14
        m = 64
        t = 2.0**-20 * (1.0 - 2.0**-52)
        w = np.eye(m)
        w[0, -1] = w[-1, 0] = 1.0
        w[-2, -1] = w[-1, -2] = t
        w[-1, -1] = 1.0 + 2.0**-40
        with pytest.raises(RuntimeError, match="pivot 2.0..e-14 below .* mode 64; .*too coarse"):
            _inverse_cholesky(w)


class TestEvaluate:
    def test_dirichlet_endpoints_exact(self, basis):
        a = rand_coeffs(basis.m)
        assert evaluate(basis, a, 0.0) == 0.0
        assert evaluate(basis, a, 20.0) == 0.0

    def test_single_mode_midpoint(self, basis):
        e1 = np.zeros(basis.m)
        e1[0] = 1.0
        assert evaluate(basis, e1, 10.0) == pytest.approx(
            basis.gs_matrix[0, 0], rel=1e-14
        )

    def test_norm_identity(self, basis):
        # 4*pi*int(rho*phi^2) equals the squared coefficient norm
        for seed, radius in [(0, 1.0), (1, 10.0), (2, math.sqrt(1000.0))]:
            a = rand_coeffs(basis.m, radius, seed)
            w_rho = basis.grid.weights * basis.grid.nodes
            phi = a @ basis.psi_nodes
            q = 4.0 * math.pi * np.dot(w_rho, phi * phi)
            assert q == pytest.approx(float(a @ a), rel=1e-8)

    def test_out_of_range_rejected(self, basis):
        a = rand_coeffs(basis.m)
        with pytest.raises(ValueError):
            evaluate(basis, a, -0.1)
        with pytest.raises(ValueError):
            evaluate(basis, a, 20.1)
        with pytest.raises(ValueError):
            evaluate(basis, a, np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            evaluate_derivatives(basis, a, np.nan)

    def test_wrong_length_rejected(self, basis):
        with pytest.raises(ValueError):
            evaluate(basis, np.ones(basis.m + 1), 1.0)

    def test_array_input(self, basis):
        a = rand_coeffs(basis.m)
        rho = np.array([0.0, 2.5, 11.0, 20.0])
        values = evaluate(basis, a, rho)
        assert values.shape == rho.shape
        assert values[0] == 0.0 and values[-1] == 0.0

    @pytest.mark.parametrize("m, panels", [(60, 48), (180, 72)])
    def test_recurrence_matches_direct_tables(self, params, m, panels):
        # Clenshaw's sums against the sin/cos(k*pi*rho/p) tables, for a converged
        # profile and a random expansion, including radii next to the endpoints;
        # the error is relative to sum_k |c_k| * (k*pi/p)**j for derivative j
        built = build_basis(params, m, build_grid(20.0, panels=panels, order_per_panel=8))
        converged = minimize_on_sphere(built, params, SolveConfig(q0=100.0))
        rho = np.concatenate(([0.0, 1e-9, 20.0 - 1e-9, 20.0], np.linspace(0.0, 20.0, 2001)))
        freq = np.arange(1, m + 1) * (math.pi / 20.0)
        sin_tab = np.sin(rho[:, None] * freq)
        cos_tab = np.cos(rho[:, None] * freq)
        sin_tab[(rho == 0.0) | (rho == 20.0)] = 0.0
        for a in (converged.coeffs, rand_coeffs(m)):
            c = a @ built.gs_matrix
            phi = evaluate(built, a, rho)
            d1, d2 = evaluate_derivatives(built, a, rho)
            for j, got, table in [(0, phi, sin_tab), (1, d1, cos_tab), (2, d2, -sin_tab)]:
                weighted = c * freq**j
                assert np.max(np.abs(got - table @ weighted)) <= 1e-12 * np.sum(np.abs(weighted))

    def test_scalar_input_returns_floats(self, basis):
        a = rand_coeffs(basis.m)
        assert type(evaluate(basis, a, 3.0)) is float
        assert all(type(v) is float for v in evaluate_derivatives(basis, a, 3.0))


class TestEvaluateUniform:
    @pytest.mark.parametrize("intervals", [2000, 45, 16])
    def test_matches_the_recurrence_on_the_uniform_grid(self, basis, solve, intervals):
        # intervals=45 puts modes past the Nyquist index (m > intervals),
        # intervals=16 past the FFT length 2*intervals, so they are folded;
        # measured worst 2.4e-14 of sum |c_k|
        rho = np.linspace(0.0, 20.0, intervals + 1)
        for a in (solve(100.0).coeffs, rand_coeffs(basis.m)):
            values = evaluate_uniform(basis, a, intervals)
            assert values.shape == rho.shape
            assert values[0] == 0.0 and values[-1] == 0.0
            bound = 1e-13 * np.sum(np.abs(a @ basis.gs_matrix))
            assert np.max(np.abs(values - evaluate(basis, a, rho))) <= bound

    def test_rejects_bad_input(self, basis):
        with pytest.raises(ValueError):
            evaluate_uniform(basis, rand_coeffs(basis.m), 0)
        with pytest.raises(ValueError):
            evaluate_uniform(basis, np.ones(basis.m + 1), 10)


class TestEvaluateDerivatives:
    def test_single_mode_second_derivative_relation(self, basis):
        e1 = np.zeros(basis.m)
        e1[0] = 1.0
        for rho in (3.0, 9.5, 17.2):
            _, d2 = evaluate_derivatives(basis, e1, rho)
            assert d2 == pytest.approx(
                -((math.pi / 20.0) ** 2) * evaluate(basis, e1, rho), rel=1e-12
            )

    def test_first_derivative_matches_finite_differences(self, basis):
        a = rand_coeffs(basis.m)
        h = 1e-5
        for rho in (3.1, 7.7, 12.3, 18.9):
            fd = (evaluate(basis, a, rho + h) - evaluate(basis, a, rho - h)) / (2 * h)
            d1, _ = evaluate_derivatives(basis, a, rho)
            assert d1 == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_second_derivative_matches_finite_differences(self, basis):
        a = rand_coeffs(basis.m)
        h = 1e-4
        for rho in (3.1, 7.7, 12.3):
            fd = (
                evaluate(basis, a, rho + h)
                - 2.0 * evaluate(basis, a, rho)
                + evaluate(basis, a, rho - h)
            ) / h**2
            _, d2 = evaluate_derivatives(basis, a, rho)
            assert d2 == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_endpoints_rejected(self, basis):
        a = rand_coeffs(basis.m)
        for rho in (-1.0, -1e-12, 20.0 + 1e-12, 21.0):
            with pytest.raises(ValueError):
                evaluate_derivatives(basis, a, rho)

    def test_endpoints_give_the_series_limits(self, basis):
        # phi = sum c_k sin(k*pi*rho/p): at rho = 0 the first derivative is
        # sum c_k*f_k and the second vanishes; at rho = p the signs alternate
        a = rand_coeffs(basis.m)
        c = a @ basis.gs_matrix
        freq = np.arange(1, basis.m + 1) * (math.pi / 20.0)
        sign = (-1.0) ** np.arange(1, basis.m + 1)
        scale = float(np.sum(np.abs(c * freq**2)))
        d1, d2 = evaluate_derivatives(basis, a, np.array([0.0, 20.0]))
        np.testing.assert_allclose(
            d1, [c @ freq, c @ (sign * freq)], rtol=1e-12, atol=1e-14 * scale
        )
        assert d2[0] == 0.0
        assert abs(d2[1]) <= 1e-12 * scale

