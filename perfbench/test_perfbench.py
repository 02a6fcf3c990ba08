"""Tests of the benchmark itself: the gate, the span arithmetic, the run counts.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
from probes import Patches, Tracer, count_step, originals  # noqa: E402
from worker import pass_seeds  # noqa: E402
from workloads import DISPERSION_Q0, VERIFY_POINTS, WORKLOADS, _verify_point  # noqa: E402


def failures(workload, parsed):
    return sum(o.failed for o in WORKLOADS[workload].check(parsed))


def winding_outputs():
    rows = [{"n": n, "omega_sq": gate.TABLE2_OMEGA[n], "phi_max": gate.TABLE2_PHIMAX[n],
             "converged": True} for n in sorted(gate.TABLE2_OMEGA)]
    return {"returncode": 0, "rows": rows}


def norm_outputs():
    q0 = np.geomspace(*DISPERSION_Q0)
    refs = sorted(gate.TABLE1_OMEGA)
    omega = np.interp(np.log(q0), np.log(refs), [gate.TABLE1_OMEGA[q] for q in refs])
    rows = []
    for q, w in zip(q0.tolist(), omega.tolist()):
        ref = next((r for r in refs if math.isclose(r, q)), None)
        rows.append({"q0": q, "omega_sq": w, "solver_omega_sq": w, "converged": True,
                     "phi_max": gate.TABLE1_PHIMAX[ref] if ref else 0.9})
    return {"returncode": 0, "rows": rows, "solution_rows": len(rows),
            "window_rows": {"omega_sq_min": gate.WINDOW[0], "omega_sq_max": gate.WINDOW[1]}}


def verify_text(n, p, gradient_error=2e-6):
    omega, phi_max = (gate.TABLE2_OMEGA[n], gate.TABLE2_PHIMAX[n]) if p == 20.0 else (0.5, 0.8)
    lin = gate.linear_limit(n, p)
    ok = gradient_error < 1e-4
    return "\n".join([
        "orthonormality: PASS (residual 1.0e-14)",
        f"gradient_fd: {'PASS' if ok else 'FAIL'} (max relative error {gradient_error:.3e})",
        f"bounds: PASS (omega_sq {omega:.4f}, phi_max {phi_max:.4f}, converged True)",
        "decay: PASS (p0 15.0, worst excess -1.0e-03)",
        f"linear_limit: PASS (omega_sq {lin:.6f} vs {lin:.6f})",
        "oracle_cross: PASS (|d omega_sq| 1.0e-06, profile diff 1.0e-04)",
        f"verify: {'all checks passed' if ok else 'FAILURES present'}",
    ]), 0 if ok else 1


def verify_outputs(failing=()):
    points = []
    for n, p in VERIFY_POINTS:
        text, code = verify_text(n, p, 2e-4 if (n, p) in failing else 2e-6)
        points.append(_verify_point(n, p, code, text))
    return {"points": points}


@pytest.mark.parametrize("workload, outputs", [
    ("winding_sweep", winding_outputs),
    ("norm_sweep", norm_outputs),
    ("verify_scan", verify_outputs),
])
def test_gate_passes_references_and_flags_three_percent(workload, outputs):
    parsed = outputs()
    assert failures(workload, parsed) == 0
    perturbed = WORKLOADS[workload].perturbed(parsed)
    assert failures(workload, perturbed) > 0
    assert all(not o.value_misses or o.failed for o in WORKLOADS[workload].check(perturbed))


def test_reported_failure_counts_without_a_wrong_value():
    outcomes = WORKLOADS["verify_scan"].check(verify_outputs(failing={(3, 24.0)}))
    failed = [o for o in outcomes if o.failed]
    assert [o.label for o in failed] == ["n=3,p=24"]
    assert failed[0].reported_failure and not failed[0].value_misses


def test_norm_sweep_gate_requires_strict_decrease():
    parsed = norm_outputs()
    parsed["rows"][5]["omega_sq"] = parsed["rows"][4]["omega_sq"]
    misses = [m for o in WORKLOADS["norm_sweep"].check(parsed) for m in o.value_misses]
    assert any("not below previous" in m for m in misses)


def test_pass_seeds_start_at_the_seed_and_repeat():
    assert pass_seeds(7, 4) == pass_seeds(7, 4)
    assert pass_seeds(7, 4)[0] == 7 and len(set(pass_seeds(7, 4))) == 4
    assert not set(pass_seeds(7, 4)[1:]) & set(pass_seeds(8, 4)[1:])


def test_self_times_and_remainder_add_up_to_wall():
    ticks = iter(range(100))
    tracer = Tracer({}, clock=lambda: float(next(ticks)))
    inner = tracer.span("solver.inner", "solver", lambda: None)
    outer = tracer.span("cli.outer", "cli", lambda: inner() or inner())
    outer()  # outer spans ticks 0..5, the inner calls 1..2 and 3..4
    metrics = tracer.metrics(wall_s=8.0)
    assert metrics["cli.self_s"] == 3.0 and metrics["solver.self_s"] == 2.0
    layers = sum(metrics[f"{layer}.self_s"] for layer in ("quadrature", "basis", "model",
                                                         "solver", "sweep", "crosscheck", "cli"))
    assert layers + metrics["trace.unattributed_s"] == metrics["trace.wall_s"] == 8.0


def test_count_step_splits_runs_at_index_one():
    segments = []
    for i in (1, 2, 3, 1, 1, 2):
        count_step(segments, i)
    assert segments == [3, 1, 2]


@pytest.fixture(scope="module")
def small_problem():
    import qvortex

    params = qvortex.ModelParams()
    basis = qvortex.build_basis(params, 12, qvortex.build_grid(params.p, 12, 4))
    return qvortex, params, basis


def traced_solve(qv, params, basis, config):
    tracer = Tracer(originals(qv))
    with Patches() as patches:
        tracer.install(patches)
        sol = qv.solver.minimize_on_sphere(basis, params, config)
    return tracer, sol


def test_descent_runs_count_runs_that_accept_no_step(small_problem):
    qv, params, basis = small_problem
    # a tolerance this loose is met at the start, so no run takes a step
    config = qv.SolveConfig(q0=100.0, grad_tol=1e6, restarts=2)
    tracer, sol = traced_solve(qv, params, basis, config)
    metrics = tracer.metrics(wall_s=1.0)
    assert sol.iterations == 0
    assert metrics["solver.descent_runs"] == 3
    assert metrics["solver.empty_runs"] == 3
    assert metrics["solver.restart_iteration_share"] == 0.0


def test_descent_runs_and_steps_match_the_solution(small_problem):
    qv, params, basis = small_problem
    config = qv.SolveConfig(q0=100.0, max_iter=50, restarts=1)
    tracer, sol = traced_solve(qv, params, basis, config)
    metrics = tracer.metrics(wall_s=1.0)
    (solve,) = tracer.solves
    assert metrics["solver.descent_runs"] == 2 and metrics["solver.empty_runs"] == 0
    assert sum(solve.segments) == sol.iterations
    assert metrics["solver.runs_at_max_iter"] == sum(s == 50 for s in solve.segments)
    assert qv.solver.minimize_on_sphere is originals(qv)["solver.minimize_on_sphere"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
