"""Acceptance suite for the benchmark parameter set (lam=1, a_pot=2, b=1.1,
p=20) at default resolution (48x8 quadrature, 60 modes).

Each criterion is one test that prints a single PASS/FAIL line (visible with
pytest -s) and then asserts. Reference values are frozen for the benchmark
set; tolerances are stated next to each criterion and are not tuned at run
time.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from qvortex import (
    SolveConfig,
    bessel_first_zero,
    build_basis,
    check_decay_envelope,
    evaluate_uniform,
    fd_minimize,
    minimize_on_sphere,
    sweep_q0,
    theory_bounds,
)
from qvortex.solver import gradient_fd_check

TABLE1_OMEGA = {10.0: 2.1755, 50.0: 0.5663, 100.0: 0.4287, 200.0: 0.3517,
                500.0: 0.2904, 1000.0: 0.2618}
TABLE1_PHIMAX = {10.0: 0.1115, 50.0: 0.9458, 100.0: 0.9963, 200.0: 1.0073,
                 500.0: 1.0077, 1000.0: 1.0062}
TABLE2_OMEGA = {1: 0.4287, 2: 0.5351, 3: 0.6657, 4: 0.8239, 5: 1.0145}
TABLE2_PHIMAX = {1: 0.9963, 2: 0.9530, 3: 0.8954, 4: 0.8261, 5: 0.7457}

AMPLITUDE_CEILING = math.sqrt(4.0 / 3.0)


def check(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def dispersion(params, basis):
    q0_values = np.geomspace(10.0, 1000.0, 25).tolist()
    return sweep_q0(params, basis, q0_values, SolveConfig(q0=q0_values[0]))


def test_criterion_01_norm_sweep_reproduction(table1):
    rows, seconds = table1
    worst = []
    for q0, sol in rows:
        tol_w = max(0.02, 0.02 * TABLE1_OMEGA[q0])
        worst.append(
            sol.converged
            and abs(sol.omega_sq - TABLE1_OMEGA[q0]) <= tol_w
            and abs(sol.phi_max - TABLE1_PHIMAX[q0]) <= 0.02 * TABLE1_PHIMAX[q0]
        )
    detail = (
        f"omega_sq {[round(s.omega_sq, 4) for _, s in rows]}, "
        f"phi_max {[round(s.phi_max, 4) for _, s in rows]}, {seconds:.1f}s"
    )
    check(1, "norm sweep values", all(worst) and seconds < 60.0, detail)


def test_criterion_02_winding_sweep_reproduction(table2):
    ok = all(
        sol.converged
        and abs(sol.omega_sq - TABLE2_OMEGA[n]) <= max(0.02, 0.02 * TABLE2_OMEGA[n])
        and abs(sol.phi_max - TABLE2_PHIMAX[n]) <= 0.02 * TABLE2_PHIMAX[n]
        for n, sol in table2
    )
    omegas = [sol.omega_sq for _, sol in table2]
    amps = [sol.phi_max for _, sol in table2]
    monotone = all(a < b for a, b in zip(omegas, omegas[1:])) and all(
        a > b for a, b in zip(amps, amps[1:])
    )
    check(2, "winding sweep values and trends", ok and monotone,
          f"omega_sq {[round(w, 4) for w in omegas]}")


def test_criterion_03_residual_errors(table1, table2):
    sols = [sol for _, sol in table1[0] + table2]
    first, rest = sols[0], sols[1:]
    ok = first.residual_error < 5e-3 and all(r.residual_error < 0.1 for r in rest)
    check(3, "residual errors", ok,
          f"q0=10 RE {first.residual_error:.2e}, max other "
          f"{max(r.residual_error for r in rest):.2e}")


def test_criterion_04_amplitude_ceiling(table1, table2):
    rows = [sol for _, sol in table1[0] + table2 if sol.converged]
    violations = [r for r in rows if not r.phi_max < AMPLITUDE_CEILING]
    check(4, "amplitude ceiling", len(rows) > 0 and not violations,
          f"max phi_max {max(r.phi_max for r in rows):.4f} < {AMPLITUDE_CEILING:.4f}")


def test_criterion_05_frequency_window(table1, dispersion):
    window_ok = all(0.2 < sol.omega_sq < 2.2 for q0, sol in table1[0] if q0 >= 50.0)
    sweep_ok = all(r.omega_sq > 0.2 for r in dispersion)
    check(5, "frequency window", window_ok and sweep_ok,
          f"dispersion min omega_sq {min(r.omega_sq for r in dispersion):.4f}")


def test_criterion_06_norm_threshold(table1, table2):
    rows = [(q0, 1, sol) for q0, sol in table1[0]] + [(100.0, n, sol) for n, sol in table2]
    rows = [row for row in rows if row[2].converged]
    bad = [(q0, n) for q0, n, sol in rows
           if sol.omega_sq < 2.2 and not q0 > math.pi * abs(n) / 2.0]
    check(6, "norm threshold", not bad, f"{len(rows)} converged rows checked")


def test_criterion_07_decay_envelope(params, table1):
    sol = dict(table1[0])[100.0]
    applicable, ok, worst = check_decay_envelope(sol.profile, sol.omega_sq, params)
    check(7, "decay envelope", applicable and ok, f"worst excess {worst:.3e}")


def test_criterion_08_linear_limit(basis, params):
    results = []
    for n in (1, 2):
        sol = minimize_on_sphere(
            basis, replace(params, n=n), SolveConfig(q0=0.01)
        )
        target = 2.2 + (bessel_first_zero(n) / 20.0) ** 2
        results.append((n, sol.omega_sq, target, abs(sol.omega_sq - target)))
    ok = all(err < 1e-3 for *_, err in results)
    check(8, "linear limit", ok,
          "; ".join(f"n={n}: {w:.6f} vs {t:.6f}" for n, w, t, _ in results))


def test_criterion_09_oracle_equivalence(basis, params, solve):
    start = time.perf_counter()
    failures = []
    for n in (1, 2):
        for q0 in (50.0, 100.0):
            spectral = solve(q0, n)
            fd = fd_minimize(replace(params, n=n), q0, n_fd=2000)
            d_omega = abs(fd.omega_sq - spectral.omega_sq)
            diff = float(np.max(np.abs(
                evaluate_uniform(basis, spectral.coeffs, fd.grid_points.size - 1)
                - fd.phi_values
            )))
            if not (d_omega < 0.01 and diff < 0.02 * spectral.phi_max):
                failures.append((n, q0, d_omega, diff))
    seconds = time.perf_counter() - start
    check(9, "independent-solver equivalence",
          not failures and seconds < 300.0, f"{seconds:.1f}s, failures {failures}")


def test_criterion_10_numerical_hygiene(basis, params, grid, solve):
    fd_err = gradient_fd_check(basis, params, q0=100.0, seed=0)
    # Gram-Schmidt of the modes as the inverse Cholesky factor of W, and its
    # smallest pivot over the mode's raw norm, which build_basis guards
    gs = np.linalg.solve(basis.w_cholesky, np.eye(basis.m))
    ortho = float(np.max(np.abs(gs @ basis.w_matrix @ gs.T - np.eye(basis.m))))
    drifts = []
    minimize_on_sphere(
        basis, params, SolveConfig(q0=100.0),
        callback=lambda _i, c, _f, _g: drifts.append(
            abs(float(c @ basis.w_matrix @ c) - 100.0) / 100.0
        ),
    )
    big = build_basis(params, 120, grid)
    sol_big = minimize_on_sphere(big, params, SolveConfig(q0=100.0))
    d_omega = abs(sol_big.omega_sq - solve(100.0).omega_sq)
    ok = fd_err < 1e-4 and ortho < 1e-8 and max(drifts) < 1e-12 and d_omega < 1e-3
    check(10, "numerical hygiene", ok,
          f"grad fd {fd_err:.2e}, ortho {ortho:.2e}, pivot ratio {basis.pivot_ratio:.2e}, "
          f"drift {max(drifts):.2e}, "
          f"m-refinement d_omega {d_omega:.2e}")


def test_criterion_11_sufficient_domain_radius(params):
    """Benchmark band for the sufficient disk radius: [11.5, 13.5].

    Under the documented evaluation convention (trapezoid trial profile
    with t^2 = a_pot/2, frequency fixed at the midpoint of the existence
    window) the bound evaluates to 592/105 ~ 5.64 for the benchmark
    parameters; the band around ~12.5 is only reached for evaluation
    frequencies near 0.59, for which no documented convention exists. The
    criterion is asserted as stated rather than tuned to pass, so this
    test is expected to fail; see the solver notes for the analysis.
    """
    p_star = theory_bounds(params).p_star
    check(11, "sufficient domain radius", 11.5 <= p_star <= 13.5,
          f"p_star {p_star:.4f} at midpoint frequency "
          f"{theory_bounds(params).p_star_omega_sq}")
