import math
from dataclasses import replace

import numpy as np
import pytest

from qvortex import SolveConfig, dense_profile, minimize_on_sphere, sweep_q0


class TestSweepQ0:
    def test_rejects_unsorted(self, params, basis):
        with pytest.raises(ValueError, match="ascending"):
            sweep_q0(params, basis, [10.0, 5.0], SolveConfig(q0=10.0))
        with pytest.raises(ValueError):
            sweep_q0(params, basis, [10.0, -5.0], SolveConfig(q0=10.0))

    def test_monotone_frequency_and_bounded_amplitude(self, table1):
        sols = [sol for _, sol in table1[0]]
        omegas = [sol.omega_sq for sol in sols]
        assert all(a > b for a, b in zip(omegas, omegas[1:]))
        assert all(sol.phi_max < 1.1547005383792515 for sol in sols)

    def test_warm_and_cold_agree(self, table1, solve):
        # warm rows start from the previous row's minimizer, solve() from the ring bump
        for q0, warm in table1[0][:3]:
            assert warm.omega_sq == pytest.approx(solve(q0).omega_sq, abs=1e-4)

    def test_row_failures_recorded_and_sweep_continues(self, params, basis):
        solutions = sweep_q0(
            params,
            basis,
            [50.0, 100.0],
            SolveConfig(q0=50.0, max_iter=2, restarts=0, grad_tol=1e-14),
        )
        assert len(solutions) == 2
        assert not any(sol.converged for sol in solutions)

    def test_norm_threshold_satisfied_rowwise(self, params, table1, table2):
        rows = [(q0, params.n, sol) for q0, sol in table1[0]]
        rows += [(100.0, n, sol) for n, sol in table2]
        for q0, n, sol in rows:
            if sol.converged and sol.omega_sq < 2.0 * params.lam * params.b:
                assert q0 > math.pi * abs(n) / (params.a_pot * params.lam)


class TestSweepN:
    def test_trends_in_winding_number(self, table2):
        omegas = [sol.omega_sq for _, sol in table2]
        amps = [sol.phi_max for _, sol in table2]
        assert all(a < b for a, b in zip(omegas, omegas[1:]))
        assert all(a > b for a, b in zip(amps, amps[1:]))

    def test_peak_radius_moves_outward(self, params, basis):
        peaks = []
        for n in (1, 2, 3):
            sol = minimize_on_sphere(
                basis, replace(params, n=n), SolveConfig(q0=100.0)
            )
            rho, phi = dense_profile(basis, sol.coeffs)
            peaks.append(rho[int(np.argmax(np.abs(phi)))])
        assert peaks[0] < peaks[1] < peaks[2]

    def test_records_carry_the_requested_winding(self, table2, solve):
        # row i is the cold solve at the i-th winding number of the input
        for n, sol in table2:
            assert float(sol.coeffs @ sol.coeffs) == pytest.approx(100.0, rel=1e-10)
            assert sol.omega_sq == solve(100.0, n).omega_sq
