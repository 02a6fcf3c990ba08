import math

import numpy as np
import pytest

import qvortex.basis as basis_module
from qvortex import (
    ModelParams,
    bessel_first_zero,
    build_basis,
    build_grid,
    evaluate_uniform,
    evaluate_uniform_derivatives,
)
from qvortex.basis import _checked_cholesky


def rand_coeffs(m, radius=10.0, seed=7):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m)
    return radius * v / np.linalg.norm(v)


class TestBuildBasis:
    def test_first_mode_normalization(self, basis):
        # 4*pi * int rho*sin(pi*rho/P)^2 = 4*pi * P^2/4 = pi*P^2
        assert basis.w_matrix[0, 0] == pytest.approx(math.pi * 20.0**2, rel=1e-10)

    def test_pivot_ratio_is_the_smallest_gram_schmidt_pivot(self, basis):
        # Gram-Schmidt of the weighted sine table in mode order, by Householder
        # QR: |R_jj| is the part of mode j independent of modes 1..j-1
        w_rho = basis.grid.weights * basis.grid.nodes
        table = np.sqrt(4.0 * math.pi * w_rho)[:, None] * basis.sin_nodes.T
        r = np.linalg.qr(table, mode="r")
        expected = np.min(np.abs(np.diag(r)) / np.linalg.norm(table, axis=0))
        assert basis.pivot_ratio == pytest.approx(expected, rel=1e-12)
        assert 0.0 < basis.pivot_ratio < 1.0

    def test_cholesky_factor_reproduces_the_metric(self, basis):
        low = basis.w_cholesky
        assert np.array_equal(low, np.tril(low)) and np.all(np.diag(low) > 0.0)
        assert np.max(np.abs(low @ low.T - basis.w_matrix)) < 1e-13 * np.max(basis.w_matrix)
        ratio = np.min(np.diag(low) / np.sqrt(np.diag(basis.w_matrix)))
        assert basis.pivot_ratio == ratio

    @pytest.mark.parametrize("m, panels", [(60, 48), (180, 72)])
    def test_orthonormality_residual(self, params, m, panels):
        # the inverse Cholesky factor of W orthonormalizes the modes sampled
        # with np.sin: measured 1.1e-14 (m=60) and 2.5e-14 (m=180)
        built = build_basis(params, m, build_grid(20.0, panels=panels, order_per_panel=8))
        w_rho = built.grid.weights * built.grid.nodes
        freq = np.arange(1, m + 1) * (math.pi / 20.0)
        sines = np.sin(freq[:, None] * built.grid.nodes)
        g = np.linalg.solve(built.w_cholesky, np.eye(m))
        psi = g @ sines
        gram = 4.0 * math.pi * (psi * w_rho) @ psi.T
        assert np.max(np.abs(gram - np.eye(m))) < 1e-8
        assert built.pivot_ratio > 0.0

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
        for name in ("w_matrix", "k_matrix", "c_matrix", "sin_nodes", "cos_nodes", "w_cholesky"):
            arr = getattr(basis, name)
            assert not arr.flags.writeable, name
            assert arr.flags.c_contiguous and arr.dtype == np.float64, name

    def test_gram_matrix_is_the_norm_metric(self, basis):
        # the moments' W against the direct product of the sine table: a
        # coefficient vector's norm 4*pi*int(rho*phi^2) is c.W.c
        w_rho = basis.grid.weights * basis.grid.nodes
        gram = 4.0 * math.pi * (basis.sin_nodes * w_rho) @ basis.sin_nodes.T
        assert np.max(np.abs(gram - basis.w_matrix)) < 1e-8 * np.max(np.abs(gram))

    def test_orthogonalization_cancels_raw_overlap(self, params, grid):
        two = build_basis(params, 2, grid)
        w_rho = grid.weights * grid.nodes
        s1 = np.sin(np.pi * grid.nodes / 20.0)
        s2 = np.sin(2.0 * np.pi * grid.nodes / 20.0)
        raw = 4.0 * math.pi * np.dot(w_rho, s1 * s2)
        # closed form -(32/9)*P^2/pi; nonzero by a wide margin
        assert raw == pytest.approx(-(32.0 / 9.0) * 400.0 / math.pi, rel=1e-8)
        assert two.w_matrix[0, 1] == pytest.approx(raw, rel=1e-8)
        # one Gram-Schmidt step in the metric W leaves s2 - (W_01/W_00)*s1
        # orthogonal to s1
        second = s2 - (two.w_matrix[0, 1] / two.w_matrix[0, 0]) * s1
        pair = 4.0 * math.pi * np.dot(w_rho, s1 * second)
        assert abs(pair) < 1e-10

    def test_matrices_symmetric_positive_definite(self, basis):
        for mat in (basis.w_matrix, basis.k_matrix, basis.c_matrix):
            assert np.max(np.abs(mat - mat.T)) < 1e-12
            assert np.linalg.eigvalsh(mat)[0] > 0.0

    def test_matrices_match_direct_recomputation(self, params):
        # K and C from the cosine moments against the products of s' and s
        # sampled with np.cos and np.sin; measured worst for K: 9.9e-15 (m=60)
        # and 2.1e-14 (m=180) of its largest entry
        for m, panels in [(60, 48), (180, 72)]:
            built = build_basis(params, m, build_grid(20.0, panels=panels, order_per_panel=8))
            w = built.grid.weights
            rho = built.grid.nodes
            freq = np.arange(1, m + 1) * (math.pi / 20.0)
            dpsi = freq[:, None] * np.cos(freq[:, None] * rho)
            psi = np.sin(freq[:, None] * rho)
            k_direct = (dpsi * (w * rho)) @ dpsi.T
            c_direct = (psi * (w / rho)) @ psi.T
            assert np.max(np.abs(k_direct - built.k_matrix)) < 1e-13 * np.max(np.abs(k_direct))
            assert np.max(np.abs(c_direct - built.c_matrix)) < 1e-13 * np.max(np.abs(c_direct))

    @pytest.mark.parametrize("n", [1, 2])
    def test_smallest_eigenvalue_matches_bessel_zero(self, params, grid, n):
        # the lowest eigenvalue of the pencil (K + n^2 C, W), W = L.L^T, is
        # that of L^-1.(K + n^2 C).L^-T
        small = build_basis(params, 40, grid)
        mat = small.k_matrix + n**2 * small.c_matrix
        low = small.w_cholesky
        half = np.linalg.solve(low, mat)
        mu = np.linalg.eigvalsh(np.linalg.solve(low, half.T))[0]
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
            _checked_cholesky(np.ones((3, 3)))
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
            _checked_cholesky(w)


def direct_tables(m, intervals):
    """sin(k*x_i) and cos(k*x_i), x_i = pi*i/intervals, k = 1..m, by np.sin and np.cos.

    The sines are set to 0 at both ends, where sin(k*pi) rounds to a few ulps.
    """
    x = np.arange(intervals + 1)[:, None] * (math.pi / intervals) * np.arange(1, m + 1)
    sin_tab = np.sin(x)
    sin_tab[[0, -1]] = 0.0
    return sin_tab, np.cos(x)


class TestEvaluate:
    def test_dirichlet_endpoints_exact(self, basis):
        a = rand_coeffs(basis.m)
        for intervals in (2000, 45, 16):
            values = evaluate_uniform(basis, a, intervals)
            assert values[0] == 0.0
            assert values[-1] == 0.0

    def test_single_mode_midpoint(self, basis):
        e1 = np.zeros(basis.m)
        e1[0] = 1.0
        # sin(pi/2) = 1
        assert evaluate_uniform(basis, e1, 2000)[1000] == pytest.approx(1.0, rel=1e-14)

    def test_norm_identity(self, basis):
        # 4*pi*int(rho*phi^2) equals the coefficients' norm c.W.c
        for seed, radius in [(0, 1.0), (1, 10.0), (2, math.sqrt(1000.0))]:
            c = rand_coeffs(basis.m, radius, seed)
            w_rho = basis.grid.weights * basis.grid.nodes
            phi = c @ basis.sin_nodes
            q = 4.0 * math.pi * np.dot(w_rho, phi * phi)
            assert q == pytest.approx(float(c @ basis.w_matrix @ c), rel=1e-8)

    def test_out_of_range_rejected(self, basis):
        # the number of intervals must be a positive integer
        a = rand_coeffs(basis.m)
        for evaluator in (evaluate_uniform, evaluate_uniform_derivatives):
            for intervals in (-1, 2.5, math.nan):
                with pytest.raises(ValueError):
                    evaluator(basis, a, intervals)

    def test_wrong_length_rejected(self, basis):
        for evaluator in (evaluate_uniform, evaluate_uniform_derivatives):
            with pytest.raises(ValueError):
                evaluator(basis, np.ones(basis.m + 1), 10)


class TestEvaluateUniform:
    @pytest.mark.parametrize("intervals", [2000, 45, 16])
    def test_matches_the_direct_sum_on_the_uniform_grid(self, basis, solve, intervals):
        # intervals=45 puts modes past the Nyquist index (m > intervals),
        # intervals=16 past the FFT length 2*intervals, so they are folded;
        # measured worst 1.3e-15 of sum |c_k|
        sin_tab, _ = direct_tables(basis.m, intervals)
        for c in (solve(100.0).coeffs, rand_coeffs(basis.m)):
            values = evaluate_uniform(basis, c, intervals)
            assert values.shape == (intervals + 1,)
            assert values[0] == 0.0 and values[-1] == 0.0
            assert np.max(np.abs(values - sin_tab @ c)) <= 1e-13 * np.sum(np.abs(c))

    def test_rejects_bad_input(self, basis):
        for evaluator in (evaluate_uniform, evaluate_uniform_derivatives):
            with pytest.raises(ValueError):
                evaluator(basis, rand_coeffs(basis.m), 0)
            with pytest.raises(ValueError):
                evaluator(basis, np.ones(basis.m + 1), 10)


class TestEvaluateDerivatives:
    # a grid of spacing 1e-4 on [0, 20] for the finite differences
    FINE = 200000

    def test_single_mode_second_derivative_relation(self, basis):
        e1 = np.zeros(basis.m)
        e1[0] = 1.0
        phi = evaluate_uniform(basis, e1, 200)
        _, d2 = evaluate_uniform_derivatives(basis, e1, 200)
        for i in (30, 95, 172):  # rho = 3.0, 9.5, 17.2
            assert d2[i] == pytest.approx(-((math.pi / 20.0) ** 2) * phi[i], rel=1e-12)

    def test_first_derivative_matches_finite_differences(self, basis):
        # five-point central differences: the three-point rule at h = 1e-4
        # leaves 1.9e-6 of truncation error at rho = 3.1
        a = rand_coeffs(basis.m)
        h = 20.0 / self.FINE
        phi = evaluate_uniform(basis, a, self.FINE)
        d1, _ = evaluate_uniform_derivatives(basis, a, self.FINE)
        for i in (31000, 77000, 123000, 189000):  # rho = 3.1, 7.7, 12.3, 18.9
            fd = (8.0 * (phi[i + 1] - phi[i - 1]) - (phi[i + 2] - phi[i - 2])) / (12 * h)
            assert d1[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_second_derivative_matches_finite_differences(self, basis):
        a = rand_coeffs(basis.m)
        h = 20.0 / self.FINE
        phi = evaluate_uniform(basis, a, self.FINE)
        _, d2 = evaluate_uniform_derivatives(basis, a, self.FINE)
        for i in (31000, 77000, 123000):  # rho = 3.1, 7.7, 12.3
            fd = (phi[i + 1] - 2.0 * phi[i] + phi[i - 1]) / h**2
            assert d2[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_endpoints_give_the_series_limits(self, basis):
        # phi = sum c_k sin(k*pi*rho/p): at rho = 0 the first derivative is
        # sum c_k*f_k and the second vanishes; at rho = p the signs alternate
        c = rand_coeffs(basis.m)
        freq = np.arange(1, basis.m + 1) * (math.pi / 20.0)
        sign = (-1.0) ** np.arange(1, basis.m + 1)
        scale = float(np.sum(np.abs(c * freq**2)))
        for intervals in (2000, 45, 16):
            d1, d2 = evaluate_uniform_derivatives(basis, c, intervals)
            np.testing.assert_allclose(
                d1[[0, -1]], [c @ freq, c @ (sign * freq)], rtol=1e-12, atol=1e-14 * scale
            )
            assert d2[0] == 0.0 and d2[-1] == 0.0

    @pytest.mark.parametrize("intervals", [2000, 45, 16])
    def test_matches_direct_tables(self, basis, solve, intervals):
        # phi' = sum c_k*f_k*cos(k*x) and phi'' = -sum c_k*f_k^2*sin(k*x) summed
        # on np.cos / np.sin tables; at intervals=45 and 16 modes past the
        # Nyquist index and past the FFT length are folded; measured worst
        # 2.3e-15 (phi') and 3.3e-15 (phi'') of sum |c_k|*f_k^j
        sin_tab, cos_tab = direct_tables(basis.m, intervals)
        freq = np.arange(1, basis.m + 1) * (math.pi / 20.0)
        for c in (solve(100.0).coeffs, rand_coeffs(basis.m)):
            d1, d2 = evaluate_uniform_derivatives(basis, c, intervals)
            assert d1.shape == d2.shape == (intervals + 1,)
            for got, weighted, table in [(d1, c * freq, cos_tab), (d2, c * freq**2, -sin_tab)]:
                assert np.max(np.abs(got - table @ weighted)) <= 1e-13 * np.sum(np.abs(weighted))


def test_uniform_fft_is_the_only_off_node_evaluator():
    # one evaluator off the nodes: no arbitrary-radius sums beside the FFT
    for name in ("evaluate", "evaluate_derivatives", "_clenshaw", "_radii"):
        assert not hasattr(basis_module, name), name
