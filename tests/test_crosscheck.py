import math
from dataclasses import replace

import numpy as np
import pytest

import qvortex.crosscheck
from qvortex import PROFILE_POINTS, bessel_first_zero, evaluate_uniform, fd_minimize
from qvortex.solver import _ring_bump_nodes

# first positive zeros of the integer-order Bessel functions J_0..J_5
BESSEL_ZEROS = {
    0: 2.404825557695773,
    1: 3.831705970207512,
    2: 5.135622301840683,
    3: 6.380161895923984,
    4: 7.588342434503804,
    5: 8.771483815959954,
}


# the verify_scan benchmark points: n in 1..3 x p in 16, 20, 24 at q0 = 100
VERIFY_SCAN = [(n, p) for n in (1, 2, 3) for p in (16.0, 20.0, 24.0)]


class TestBesselFirstZero:
    @pytest.mark.parametrize("order,reference", sorted(BESSEL_ZEROS.items()))
    def test_reference_values(self, order, reference):
        assert bessel_first_zero(order) == pytest.approx(reference, abs=1e-14)

    @pytest.mark.parametrize("order", [*range(61), 100, 200, 500, 1000, 2000])
    def test_matches_scipy_jn_zeros(self, order):
        from scipy.special import jn_zeros

        assert bessel_first_zero(order) == pytest.approx(jn_zeros(order, 1)[0], rel=1e-14)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            bessel_first_zero(2.5)
        with pytest.raises(ValueError):
            bessel_first_zero(-1)

    @staticmethod
    def reference_zero(order, rows=600):
        """The zero from a rows-row matrix by LAPACK's bisection.

        That is accurate to relative roundoff, where a dense 600-row
        eigvalsh is off by about 1e-14.
        """
        from scipy.linalg import eigvalsh_tridiagonal

        s = order + 2.0 * np.arange(1, rows + 1)
        off = 1.0 / ((s[:-1] + 1.0) * np.sqrt(s[:-1] * (s[:-1] + 2.0)))
        diag = 2.0 / ((s - 1.0) * (s + 1.0))
        (largest,) = eigvalsh_tridiagonal(diag, off, select="i", select_range=(rows - 1,) * 2)
        return 2.0 / math.sqrt(largest)

    def test_order_bound_is_where_the_zero_leaves_1e_14(self, monkeypatch):
        # against 600 rows: 9.96e-15 relative at the bound, 1.02e-14 one past it
        bound = qvortex.crosscheck._BESSEL_ORDER_MAX
        with pytest.raises(ValueError, match=f"Bessel order {bound + 1} exceeds {bound}"):
            bessel_first_zero(bound + 1)
        monkeypatch.setattr(qvortex.crosscheck, "_BESSEL_ORDER_MAX", bound + 1)
        for order, within in ((bound, True), (bound + 1, False)):
            error = abs(bessel_first_zero(order) / self.reference_zero(order) - 1.0)
            assert (error <= 1e-14) is within


class TestFdMinimize:
    def test_boundary_values_and_constraint(self, params):
        fd = fd_minimize(params, 100.0, n_fd=400)
        assert fd.phi_values[0] == 0.0
        assert fd.phi_values[-1] == 0.0
        q = 4.0 * math.pi * np.trapezoid(
            fd.grid_points * fd.phi_values**2, fd.grid_points
        )
        assert q == pytest.approx(100.0, rel=1e-10)

    def test_rejects_coarse_grid_and_bad_norm(self, params):
        with pytest.raises(ValueError):
            fd_minimize(params, 100.0, n_fd=50)
        with pytest.raises(ValueError):
            fd_minimize(params, -1.0)
        for bad in ({"grad_tol": 0.0}, {"grad_tol": -1e-7}):
            with pytest.raises(ValueError):
                fd_minimize(params, 100.0, **bad)

    def test_agrees_with_spectral_solver(self, basis, params, solve):
        fd = fd_minimize(params, 100.0, n_fd=2000)
        sol = solve(100.0)
        assert fd.converged
        assert abs(fd.omega_sq - sol.omega_sq) < 0.01
        phi_at_nodes = evaluate_uniform(basis, sol.coeffs, fd.grid_points.size - 1)
        assert np.max(np.abs(phi_at_nodes - fd.phi_values)) < 0.02 * sol.phi_max

    def test_profile_shape_agreement_high_winding(self, basis, params):
        from qvortex import SolveConfig, minimize_on_sphere

        n3 = replace(params, n=3)
        fd = fd_minimize(n3, 100.0, n_fd=2000)
        sol = minimize_on_sphere(basis, n3, SolveConfig(q0=100.0))
        rho, phi = fd.grid_points, fd.phi_values
        fd_peak = rho[np.argmax(np.abs(phi))]
        rho_s = np.linspace(0.0, basis.p, PROFILE_POINTS)
        spec_peak = rho_s[np.argmax(np.abs(sol.profile))]
        assert fd_peak == pytest.approx(spec_peak, rel=0.02)
        assert np.max(np.abs(phi)) == pytest.approx(sol.phi_max, rel=0.01)

    def test_grid_refinement_stability(self, params):
        coarse = fd_minimize(params, 100.0, n_fd=2000)
        fine = fd_minimize(params, 100.0, n_fd=4000)
        assert abs(fine.omega_sq - coarse.omega_sq) < 1e-3

    @pytest.mark.parametrize("n,q0", [(1, 100.0), (2, 100.0), (3, 100.0), (1, 0.01)])
    def test_newton_step_budget(self, params, n, q0):
        fd = fd_minimize(replace(params, n=n), q0, n_fd=2000)
        assert fd.converged
        assert fd.iterations < 100

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lands_on_the_discrete_minimizer(self, params, n):
        # omega_sq is first order in the distance to the minimizer. At n = 1
        # and 2 the default stop lands on the same Newton step as the
        # reference; at n = 3 it stops after 17 steps against 19, with
        # |d omega_sq| = 5.3e-10, so the bound checks a real gap. 1e-10 sits
        # well above the tangent gradient's rounding floor (~1e-12), so the
        # reference run converges.
        row = replace(params, n=n)
        fd = fd_minimize(row, 100.0, n_fd=2000)
        ref = fd_minimize(row, 100.0, n_fd=2000, grad_tol=1e-10)
        assert fd.converged and ref.converged
        assert abs(fd.omega_sq - ref.omega_sq) < 1e-8

    def test_linear_limit(self, params):
        fd = fd_minimize(params, 0.01, n_fd=2000)
        expected = 2.2 + (bessel_first_zero(1) / 20.0) ** 2
        assert fd.omega_sq == pytest.approx(expected, abs=2e-3)


class TestFdStart:
    """The oracle starts from the ring bump or the thin wall, whichever has the lower action."""

    @staticmethod
    def bump_started(monkeypatch, params, q0):
        # a thin-wall candidate equal to the bump ties, and a tie keeps the bump
        with monkeypatch.context() as patch:
            patch.setattr(qvortex.crosscheck, "_thin_wall_nodes",
                          lambda rho, n_abs, q0, a_pot: _ring_bump_nodes(rho, n_abs, params.p))
            return fd_minimize(params, q0, n_fd=2000)

    def test_same_frequency_as_the_bump_start(self, params, monkeypatch):
        for n, p in VERIFY_SCAN:
            row = replace(params, n=n, p=p)
            fd = fd_minimize(row, 100.0, n_fd=2000)
            bump = self.bump_started(monkeypatch, row, 100.0)
            assert fd.converged and bump.converged, (n, p)
            assert fd.omega_sq == pytest.approx(bump.omega_sq, abs=1e-7), (n, p)

    def test_verify_scan_step_budget(self, params):
        # 134 steps from the ring bump alone, 70 from the lower-action start
        steps = [fd_minimize(replace(params, n=n, p=p), 100.0, n_fd=2000).iterations
                 for n, p in VERIFY_SCAN]
        assert sum(steps) <= 80, steps

    def test_thin_wall_outside_the_disk_is_not_offered(self, params):
        # R = sqrt(5000/(2*pi)) + 4 ~ 32 > p = 12. Offered, the thin wall has
        # the lower starting action but ends at omega_sq 157.27 (action
        # 9,807); the bump ends at 147.288 (action 8,839).
        fd = fd_minimize(replace(params, n=4, p=12.0), 5000.0, n_fd=2000)
        assert fd.converged
        assert fd.omega_sq == pytest.approx(147.28816327, abs=1e-6)
