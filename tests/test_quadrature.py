import math

import numpy as np
import pytest

from qvortex import build_grid
from qvortex.quadrature import _gauss_legendre


class TestBuildGrid:
    def test_single_panel_two_point_rule(self):
        grid = build_grid(20.0, panels=1, order_per_panel=2)
        expected = np.array([10.0 - 10.0 / math.sqrt(3.0), 10.0 + 10.0 / math.sqrt(3.0)])
        np.testing.assert_allclose(grid.nodes, expected, rtol=1e-15)
        np.testing.assert_allclose(grid.weights, [10.0, 10.0], rtol=1e-15)

    def test_nodes_interior_and_increasing(self):
        grid = build_grid(20.0, panels=48, order_per_panel=8)
        assert np.all(grid.nodes > 0.0) and np.all(grid.nodes < 20.0)
        assert np.all(np.diff(grid.nodes) > 0.0)

    def test_weights_sum_to_length(self):
        for panels, order in [(1, 2), (7, 3), (48, 8)]:
            grid = build_grid(20.0, panels, order)
            assert np.sum(grid.weights) == pytest.approx(20.0, rel=1e-12)

    def test_degree_one_exactness(self):
        grid = build_grid(20.0, panels=48, order_per_panel=8)
        assert grid.weights @ grid.nodes == pytest.approx(200.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_rejects_nonpositive_length(self, bad):
        with pytest.raises(ValueError):
            build_grid(bad)

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            build_grid(20.0, panels=0)
        with pytest.raises(ValueError):
            build_grid(20.0, panels=4, order_per_panel=1)

    def test_arrays_readonly(self):
        grid = build_grid(20.0, panels=2, order_per_panel=4)
        with pytest.raises(ValueError):
            grid.nodes[0] = 5.0

    def test_cached_rule_is_read_only_and_unchanged(self):
        # the rule is computed once per order and shared by every later grid,
        # so no caller may write into it
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(8)
        nodes, weights = _gauss_legendre(8)
        assert _gauss_legendre(8)[0] is nodes
        for arr in (nodes, weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)
        grid = build_grid(20.0, panels=48, order_per_panel=8)
        width = 20.0 / 48
        starts = width * np.arange(48)
        assert np.array_equal(grid.nodes, (starts[:, None] + 0.5 * width * (ref_nodes + 1.0)).ravel())
        assert np.array_equal(grid.weights, np.tile(0.5 * width * ref_weights, 48))


class TestIntegrate:
    """Accuracy of the rule sum_k w_k * f(node_k)."""

    def test_constant(self):
        grid = build_grid(20.0, panels=48, order_per_panel=8)
        assert grid.weights @ np.ones_like(grid.nodes) == pytest.approx(20.0, rel=1e-14)

    def test_weighted_sine_square(self):
        # closed form: int_0^P rho*sin^2(pi*rho/P) drho = P^2/4
        grid = build_grid(20.0, panels=40, order_per_panel=10)
        r = grid.nodes
        value = grid.weights @ (r * np.sin(np.pi * r / 20.0) ** 2)
        assert value == pytest.approx(100.0, abs=1e-10)

    def test_quintic_single_panel(self):
        grid = build_grid(1.0, panels=1, order_per_panel=4)
        assert grid.weights @ grid.nodes**5 == pytest.approx(1.0 / 6.0, abs=1e-14)

    @pytest.mark.parametrize("order", [2, 3, 5])
    def test_polynomial_exactness_up_to_degree(self, order):
        # Gauss order q is exact through degree 2q - 1 on each panel
        grid = build_grid(2.5, panels=3, order_per_panel=order)
        rng = np.random.default_rng(42)
        coeffs = rng.uniform(-2.0, 2.0, size=2 * order)
        exact = sum(c * 2.5 ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))
        value = grid.weights @ np.polynomial.polynomial.polyval(grid.nodes, coeffs)
        assert value == pytest.approx(exact, rel=1e-13)

    def test_inverse_rho_is_finite_on_interior_nodes(self):
        grid = build_grid(20.0, panels=48, order_per_panel=8)
        assert math.isfinite(grid.weights @ (1.0 / grid.nodes))

    def test_refinement_convergence_of_sine_overlap(self):
        def overlap(grid):
            r = grid.nodes
            return grid.weights @ (r * np.sin(np.pi * r / 20.0) * np.sin(2.0 * np.pi * r / 20.0))

        coarse = overlap(build_grid(20.0, panels=48, order_per_panel=8))
        fine = overlap(build_grid(20.0, panels=96, order_per_panel=8))
        assert abs(fine - coarse) < 1e-10
        # closed form: -(8/9) * P^2 / pi^2
        assert fine == pytest.approx(-(8.0 / 9.0) * 400.0 / math.pi**2, rel=1e-12)
