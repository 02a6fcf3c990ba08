"""Shared fixtures: one grid/basis and memoized solves for the whole session.

Everything here is deterministic, so session-scoping is purely a speed
matter: the benchmark parameter set (lam=1, a_pot=2, b=1.1, p=20) with the
default resolution (48x8 quadrature, 60 modes) backs most tests.
"""

import time
from dataclasses import replace

import pytest

from qvortex import (
    ModelParams,
    SolveConfig,
    build_basis,
    build_grid,
    minimize_on_sphere,
    sweep_n,
    sweep_q0,
)

TABLE1_Q0 = (10.0, 50.0, 100.0, 200.0, 500.0, 1000.0)
TABLE2_N = (1, 2, 3, 4, 5)


@pytest.fixture(scope="session")
def params():
    return ModelParams()


@pytest.fixture(scope="session")
def grid():
    return build_grid(20.0, panels=48, order_per_panel=8)


@pytest.fixture(scope="session")
def basis(params, grid):
    return build_basis(params, 60, grid)


@pytest.fixture(scope="session")
def solve(basis, params):
    """Memoized minimize_on_sphere(q0, n) on the shared basis."""
    cache = {}

    def run(q0, n=1):
        key = (q0, n)
        if key not in cache:
            row_params = params if n == 1 else replace(params, n=n)
            cache[key] = minimize_on_sphere(basis, row_params, SolveConfig(q0=q0))
        return cache[key]

    return run


@pytest.fixture(scope="session")
def table1(params, basis):
    """([(q0, solution), ...], wall seconds) of the warm-started norm sweep."""
    start = time.perf_counter()
    solutions = sweep_q0(params, basis, list(TABLE1_Q0), SolveConfig(q0=TABLE1_Q0[0]))
    return list(zip(TABLE1_Q0, solutions)), time.perf_counter() - start


@pytest.fixture(scope="session")
def table2(params, basis):
    """[(n, solution), ...] of the winding sweep at q0 = 100."""
    solutions = sweep_n(params, basis, list(TABLE2_N), 100.0, SolveConfig(q0=100.0))
    return list(zip(TABLE2_N, solutions))
