"""Benchmark entry point for qvortex; run it from the root of a checkout.

    python3 perfbench/run.py --workload winding_sweep --seed 0 --seconds 30 --trace 0

It starts perfbench/worker.py as a child process with every BLAS/OpenMP
thread variable set to 1 in the child's environment only (no machine
setting changes), waits for it, prints a readable report and, as the last
line, one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics of untraced passes. --trace 1
reports the per-layer metrics of traced passes, the tracing overhead, and
one more pass in a child whose thread variables are unset, recorded as
information next to the pinned numbers.

The run fails (non-zero exit, no result line) when ./src/qvortex is missing
or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "iterations": "count",
    "max_residual_error": "1",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "quadrature.build_grid_s": "s",
    "quadrature.self_s": "s",
    "basis.build_basis_s": "s",
    "basis.builds": "count",
    "basis.evaluate_s": "s",
    "basis.self_s": "s",
    "model.self_s": "s",
    "solver.minimize_s.p50": "s",
    "solver.minimize_s.max": "s",
    "solver.minimize_s.count": "count",
    "solver.iterations_per_solve.p50": "count",
    "solver.iterations_per_solve.max": "count",
    "solver.s_per_iteration": "s",
    "solver.descent_runs": "count",
    "solver.empty_runs": "count",
    "solver.runs_at_max_iter": "count",
    "solver.restart_iteration_share": "1",
    "solver.diagnostics_s": "s",
    "solver.functional_gradient_s": "s",
    "solver.discrete_functional_s": "s",
    "solver.gradient_fd_check_s": "s",
    "solver.self_s": "s",
    "sweep.self_s": "s",
    "crosscheck.fd_minimize_s": "s",
    "crosscheck.fd_iterations": "count",
    "crosscheck.bessel_first_zero_s": "s",
    "crosscheck.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "threads_default.wall_s": "s",
    "threads_default.setup_s": "s",
    "threads_default.iterations": "count",
}

CHILD_TIMEOUT_S = 170.0


def child_env(pinned):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    if pinned:
        env.update(dict.fromkeys(THREAD_VARIABLES, "1"))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(args, pinned, mode, seconds, passes, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode]
    if passes:
        cmd += ["--passes", str(passes)]
    proc = subprocess.run(cmd, env=child_env(pinned), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def fingerprint(env):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        cpu = next(
            (line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo", encoding="utf-8")
             if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: env.get(k, "unset") for k in THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (Path.cwd() / "src" / "qvortex" / "__init__.py").is_file():
        raise SystemExit("no src/qvortex here: run from the root of a qvortex checkout")

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    if args.trace:
        result = run_worker(args, True, "trace", args.seconds, None, deadline)
        default = run_worker(args, False, "plain", 0, 1, deadline)
        result["metrics"].update({
            "threads_default.wall_s": default["metrics"]["wall_s"],
            "threads_default.setup_s": default["metrics"]["setup_s"],
            "threads_default.iterations": default["metrics"]["iterations"],
        })
        for r in default["records"]:
            r["note"] = "threads unset"
        names, records = PER_LAYER, result["records"] + default["records"]
    else:
        result = run_worker(args, True, "plain", args.seconds, None, deadline)
        names, records = END_TO_END, result["records"]

    attempted = sum(r["operations"] for r in records)
    failed = sum(len(r["failed"]) for r in records)
    misses = [m for r in records for m in r["value_misses"]]
    uncaught = [r["seed"] for r in records if not r["perturbation_caught"]]
    correct = not misses and not uncaught

    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, trace {args.trace}")
    print("environment " + json.dumps(fingerprint(child_env(True))))
    for r in records:
        note = r.get("note", "traced" if r["traced"] else "")
        print(f"  pass seed {r['seed']}{f' ({note})' if note else ''}: wall {r['wall_s']:.3f} s, "
              f"iterations {r['iterations']}, failed {len(r['failed'])}/{r['operations']}"
              + "".join(f"\n    failed {f}" for f in r["failed"]))
    for m in misses:
        print(f"  WRONG OUTPUT {m}")
    if uncaught:
        print(f"  GATE SELF-TEST: +3% omega_sq not caught on seeds {uncaught}")
    print(f"  failed_frac {failed / attempted:.6g} ({failed}/{attempted} operations)")
    for name, unit in names.items():
        print(f"  {name} {result['metrics'][name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in names.items()},
    }))


if __name__ == "__main__":
    main()
