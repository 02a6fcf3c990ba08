import functools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qvortex import (
    ModelParams,
    SolveConfig,
    build_basis,
    build_grid,
    dense_profile,
    minimize_on_sphere,
    sweep_n,
    sweep_q0,
)


@functools.cache
def basis_at(p):
    """The default-resolution basis on the disk of radius p (n-independent)."""
    return build_basis(ModelParams(p=p), 60, build_grid(p, panels=48, order_per_panel=8))


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
        # warm rows start from the previous row's minimizer or the thin wall,
        # solve() from the lowest of the three cold candidates
        for q0, warm in table1[0][:3]:
            assert warm.omega_sq == pytest.approx(solve(q0).omega_sq, abs=1e-4)

    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(1, 4),
        p=st.sampled_from([8.0, 12.0, 20.0, 40.0]),
        log_q0=st.lists(st.floats(math.log(5.0), math.log(5000.0)), min_size=2, max_size=2),
    )
    def test_continued_row_lands_on_the_cold_minimum(self, n, p, log_q0):
        # no branch jump: the second row, started from the lower of the first
        # row's minimizer and the thin wall, finds the cold solve's frequency
        low, high = sorted(math.exp(v) for v in log_q0)
        assume(low < high)
        params, basis = ModelParams(n=n, p=p), basis_at(p)
        first, second = sweep_q0(params, basis, [low, high], SolveConfig(q0=low))
        cold = minimize_on_sphere(basis, params, SolveConfig(q0=high))
        assert first.converged and second.converged and cold.converged
        assert second.omega_sq == pytest.approx(cold.omega_sq, rel=1e-6)

    def test_row_failures_recorded_and_sweep_continues(self, params, basis):
        solutions = sweep_q0(
            params,
            basis,
            [50.0, 100.0],
            SolveConfig(q0=50.0, max_iter=2, grad_tol=1e-14),
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

    def test_records_carry_the_requested_winding(self, params, basis, table2, solve):
        # row i is the solve at the i-th winding number started from row i-1,
        # and lands on the cold solve's minimizer
        start = None
        for n, sol in table2:
            assert float(sol.coeffs @ sol.coeffs) == pytest.approx(100.0, rel=1e-10)
            warm = minimize_on_sphere(
                basis, replace(params, n=n), SolveConfig(q0=100.0, start_coeffs=start)
            )
            assert np.array_equal(sol.coeffs, warm.coeffs)
            assert (sol.omega_sq, sol.iterations) == (warm.omega_sq, warm.iterations)
            assert sol.omega_sq == pytest.approx(solve(100.0, n).omega_sq, rel=1e-8)
            start = tuple(sol.coeffs)

    def test_rejects_a_non_integer_winding(self, params, basis):
        with pytest.raises(ValueError, match="n must be a nonzero integer"):
            sweep_n(params, basis, [1.5, 2.9], SolveConfig(q0=100.0))


@pytest.mark.parametrize(
    "sweep, values, rows",
    [
        (sweep_q0, [10.0, 20.0, 30.0, 40.0], [(1, 10.0), (1, 20.0), (1, 30.0), (1, 40.0)]),
        (sweep_n, [1, 2, 3, 4], [(1, 10.0), (2, 10.0), (3, 10.0), (4, 10.0)]),
    ],
)
def test_each_row_starts_from_the_last_converged_row(
    monkeypatch, params, basis, sweep, values, rows
):
    calls = []

    def spy(basis, params, config):
        row = len(calls)
        calls.append((params.n, config.q0, config.start_coeffs))
        # row 1 does not converge, so row 2 starts from row 0 as well
        return SimpleNamespace(coeffs=np.full(2, float(row)), converged=row != 1)

    monkeypatch.setattr("qvortex.sweep.minimize_on_sphere", spy)
    solutions = sweep(params, basis, values, SolveConfig(q0=10.0, start_coeffs=(7.0, 7.0)))
    assert [sol.coeffs[0] for sol in solutions] == [0.0, 1.0, 2.0, 3.0]
    assert [(n, q0) for n, q0, _ in calls] == rows
    assert [start for _, _, start in calls] == [(7.0, 7.0), (0.0, 0.0), (0.0, 0.0), (2.0, 2.0)]
