"""The three workloads: which CLI commands a pass runs and how its outputs are read.

A pass runs the workload's commands once through `qvortex.cli.main`, with
one rng seed for all of them, then reads the files and lines they wrote and
gives them to the gate. One operation is one sweep row or one `verify`
point.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gate

DISPERSION_Q0 = (10.0, 1000.0, 25)
VERIFY_POINTS = tuple((n, p) for n in (1, 2, 3) for p in (16.0, 20.0, 24.0))
PERTURBATION = 1.03
_OMEGA_KEYS = ("omega_sq", "solver_omega_sq", "linear_omega_sq")

_CHECK_LINE = re.compile(r"^(\w+): (PASS|FAIL) \((.*)\)$")
_BOUNDS = re.compile(r"omega_sq (\S+), phi_max (\S+),")
_LINEAR = re.compile(r"omega_sq (\S+) vs")


@dataclass(frozen=True)
class Workload:
    """Base: subclasses say which commands a pass runs and how to read them."""

    name: str
    why: str
    nominal_pass_s: float  # mean pass time over seeds at the baseline, BLAS pinned

    def commands(self, seed, out_dir):
        """argv lists for qvortex.cli.main."""
        raise NotImplementedError

    def read(self, out_dir, results, solutions):
        """Parsed outputs of one pass; results are (argv, returncode, output) tuples."""
        raise NotImplementedError

    def check(self, parsed):
        """One gate.Outcome per operation."""
        raise NotImplementedError

    @staticmethod
    def perturbed(parsed):
        """A copy of parsed outputs with every omega_sq raised by 3%."""
        def bump(obj):
            if isinstance(obj, dict):
                return {k: (v * PERTURBATION if k in _OMEGA_KEYS and v is not None
                            else bump(v)) for k, v in obj.items()}
            if isinstance(obj, list):
                return [bump(v) for v in obj]
            return obj

        return bump(parsed)


class WindingSweep(Workload):
    def commands(self, seed, out_dir):
        return [["table2", "--seed", str(seed), "--out", str(out_dir)]]

    def read(self, out_dir, results, solutions):
        rows = [
            {"n": int(r["n"]), "omega_sq": float(r["omega_sq"]),
             "phi_max": float(r["phi_max"]), "converged": r["converged"] == "true"}
            for r in _csv_rows(Path(out_dir) / "table2.csv")
        ]
        return {"returncode": results[0][1], "rows": rows}

    def check(self, parsed):
        outcomes = gate.check_winding(parsed["rows"])
        _command_status(outcomes, parsed["returncode"])
        return outcomes


class NormSweep(Workload):
    def commands(self, seed, out_dir):
        return [["dispersion", "--seed", str(seed), "--out", str(out_dir)]]

    def read(self, out_dir, results, solutions):
        """dispersion.csv joined row by row with the solutions the sweep returned."""
        table = _csv_rows(Path(out_dir) / "dispersion.csv")
        solved = [r for r in table if r["label"] == "solution"]
        rows = [{"q0": float(r["q0"]), "omega_sq": float(r["omega_sq"]),
                 "phi_max": sol.phi_max, "converged": sol.converged,
                 "solver_omega_sq": sol.omega_sq}
                for r, sol in zip(solved, solutions)]
        windows = {r["label"]: float(r["omega_sq"]) for r in table if r["label"] != "solution"}
        return {"returncode": results[0][1], "rows": rows, "window_rows": windows,
                "solution_rows": len(solved)}

    def check(self, parsed):
        expected = np.geomspace(*DISPERSION_Q0).tolist()
        outcomes = gate.check_norm_sweep(parsed["rows"], parsed["window_rows"], expected)
        for row, out in zip(parsed["rows"], outcomes):
            # 17 significant digits in the file must round-trip the solver's value
            if row["omega_sq"] != row["solver_omega_sq"]:
                out.value_misses.append("file omega_sq differs from the solver's")
        if parsed["solution_rows"] != len(parsed["rows"]):
            outcomes.append(gate.Outcome("rows", value_misses=["rows without a solve"]))
        _command_status(outcomes, parsed["returncode"])
        return outcomes


class VerifyScan(Workload):
    def commands(self, seed, out_dir):
        return [["verify", "--n", str(n), "--set", f"p={p:g}", "--seed", str(seed)]
                for n, p in VERIFY_POINTS]

    def read(self, out_dir, results, solutions):
        return {"points": [_verify_point(n, p, rc, text)
                           for (n, p), (_, rc, text) in zip(VERIFY_POINTS, results)]}

    def check(self, parsed):
        return [gate.check_verify_point(point) for point in parsed["points"]]


def _command_status(outcomes, returncode):
    """A sweep command that exits non-zero fails its rows if none says why."""
    if returncode != 0 and not any(o.reported_failure for o in outcomes):
        for o in outcomes:
            o.reported_failure = f"exit status {returncode}"


def _csv_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _verify_point(n, p, returncode, text):
    checks = {}
    for line in text.splitlines():
        match = _CHECK_LINE.match(line)
        if match:
            checks[match.group(1)] = (match.group(2) == "PASS", match.group(3))
    point = {"n": n, "p": p, "returncode": returncode, "checks": checks,
             "bounds": None, "linear_omega_sq": None}
    bounds = _BOUNDS.search(checks.get("bounds", (False, ""))[1])
    if bounds:
        point["bounds"] = {"omega_sq": float(bounds.group(1)), "phi_max": float(bounds.group(2))}
    linear = _LINEAR.search(checks.get("linear_limit", (False, ""))[1])
    if linear:
        point["linear_omega_sq"] = float(linear.group(1))
    return point


WORKLOADS = {
    w.name: w
    for w in (
        WindingSweep(
            "winding_sweep",
            "qvortex table2: n=1..5 at q0=100, cold start per row; the hardest descent, "
            "restarts dominate and the n=4 first run stops at max_iter yet reads converged",
            5.0,
        ),
        NormSweep(
            "norm_sweep",
            "qvortex dispersion: n=1, 25 log-spaced q0 in [10,1000], warm-started; easy "
            "conditioning, per-solve diagnostics 25 times, one basis",
            2.2,
        ),
        VerifyScan(
            "verify_scan",
            "qvortex verify at n in 1..3 x p in 16,20,24: 9 grid+basis builds, near-linear "
            "solves, FD gradient check and FD oracle; the gradient check fails on some seeds",
            5.5,
        ),
    )
}
