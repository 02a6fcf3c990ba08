"""Correctness gate: reference values and closed-form bounds, checked per operation.

Everything here is a copy kept inside the benchmark, so a change to the
package cannot move the yardstick it is measured with:

* Table 1 and Table 2 reference values and the 2% tolerance of the package's
  acceptance suite (omega_sq within max(0.02, 2%), phi_max within 2%);
* the model's closed-form bounds for the parameter set
  lam = 1, a_pot = 2, b = 1.1: the existence window
  2*lam*(b - a_pot^2/4) < omega_sq < 2*lam*b, the necessary bound
  2*lam*(b - a_pot^2/3) + n^2/p^2 < omega_sq and the amplitude ceiling
  phi_max < sqrt(2*a_pot/3);
* the linear-limit frequency 2*lam*b + (j_{n,1}/p)^2, with the Bessel zero
  taken from scipy rather than from the package.

An operation is one sweep row or one `verify` point. Each check function
returns one Outcome per operation; `reported_failure` marks a failure the
program itself reported (non-zero exit, a row that did not converge),
`value_misses` lists outputs that contradict the references or bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from scipy.special import jn_zeros

LAM, A_POT, B = 1.0, 2.0, 1.1
P = 20.0  # disk radius of the sweeps (the CLI default)
TOLERANCE = 0.02

TABLE1_OMEGA = {10.0: 2.1755, 50.0: 0.5663, 100.0: 0.4287, 200.0: 0.3517,
                500.0: 0.2904, 1000.0: 0.2618}
TABLE1_PHIMAX = {10.0: 0.1115, 50.0: 0.9458, 100.0: 0.9963, 200.0: 1.0073,
                 500.0: 1.0077, 1000.0: 1.0062}
TABLE2_OMEGA = {1: 0.4287, 2: 0.5351, 3: 0.6657, 4: 0.8239, 5: 1.0145}
TABLE2_PHIMAX = {1: 0.9963, 2: 0.9530, 3: 0.8954, 4: 0.8261, 5: 0.7457}

WINDOW = (2.0 * LAM * (B - A_POT**2 / 4.0), 2.0 * LAM * B)
AMPLITUDE_CEILING = math.sqrt(2.0 * A_POT / 3.0)
LINEAR_LIMIT_TOL = 1e-3


def necessary_bound(n, p):
    return 2.0 * LAM * (B - A_POT**2 / 3.0) + n**2 / p**2


def linear_limit(n, p):
    return 2.0 * LAM * B + (float(jn_zeros(abs(n), 1)[0]) / p) ** 2


@dataclass
class Outcome:
    """Verdict on one operation."""

    label: str
    reported_failure: str = ""
    value_misses: list = field(default_factory=list)

    @property
    def failed(self):
        return bool(self.reported_failure or self.value_misses)


def _reference_misses(omega_sq, phi_max, ref_omega, ref_phimax):
    misses = []
    if abs(omega_sq - ref_omega) > max(TOLERANCE, TOLERANCE * ref_omega):
        misses.append(f"omega_sq {omega_sq:.6g} vs reference {ref_omega}")
    if abs(phi_max - ref_phimax) > TOLERANCE * ref_phimax:
        misses.append(f"phi_max {phi_max:.6g} vs reference {ref_phimax}")
    return misses


def _bound_misses(omega_sq, phi_max, n, p):
    misses = []
    if not WINDOW[0] < omega_sq < WINDOW[1]:
        misses.append(f"omega_sq {omega_sq:.6g} outside window {WINDOW}")
    if not omega_sq > necessary_bound(n, p):
        misses.append(f"omega_sq {omega_sq:.6g} below necessary bound")
    if not phi_max < AMPLITUDE_CEILING:
        misses.append(f"phi_max {phi_max:.6g} above ceiling {AMPLITUDE_CEILING:.6g}")
    return misses


def check_winding(rows):
    """Rows of table2.csv: dicts with n, omega_sq, phi_max, converged."""
    outcomes = []
    for row in rows:
        out = Outcome(f"n={row['n']}")
        if not row["converged"]:
            out.reported_failure = "row did not converge"
        out.value_misses += _bound_misses(row["omega_sq"], row["phi_max"], row["n"], P)
        if row["n"] in TABLE2_OMEGA:
            out.value_misses += _reference_misses(
                row["omega_sq"], row["phi_max"], TABLE2_OMEGA[row["n"]], TABLE2_PHIMAX[row["n"]]
            )
        outcomes.append(out)
    if [row["n"] for row in rows] != sorted(TABLE2_OMEGA):
        outcomes.append(Outcome("rows", value_misses=[f"rows {[r['n'] for r in rows]}"]))
    return outcomes


def check_norm_sweep(rows, window_rows, expected_q0):
    """Solution rows of dispersion.csv (n = 1) joined with the solver's own records.

    rows: dicts with q0, omega_sq, phi_max, converged in ascending q0.
    window_rows: the two reference rows {label: omega_sq}.
    """
    outcomes = []
    prev = None
    for row in rows:
        q0 = row["q0"]
        out = Outcome(f"q0={q0:.6g}")
        if not row["converged"]:
            out.reported_failure = "row did not converge"
        out.value_misses += _bound_misses(row["omega_sq"], row["phi_max"], 1, P)
        ref = next((q for q in TABLE1_OMEGA if math.isclose(q, q0, rel_tol=1e-9)), None)
        if ref is not None:
            out.value_misses += _reference_misses(
                row["omega_sq"], row["phi_max"], TABLE1_OMEGA[ref], TABLE1_PHIMAX[ref]
            )
        if prev is not None and not row["omega_sq"] < prev:
            out.value_misses.append(f"omega_sq {row['omega_sq']:.9g} not below previous {prev:.9g}")
        prev = row["omega_sq"]
        outcomes.append(out)
    got_q0 = [row["q0"] for row in rows]
    if len(got_q0) != len(expected_q0) or not all(
        math.isclose(a, b, rel_tol=1e-12) for a, b in zip(got_q0, expected_q0)
    ):
        outcomes.append(Outcome("rows", value_misses=["q0 grid differs from the request"]))
    edges = (window_rows.get("omega_sq_min"), window_rows.get("omega_sq_max"))
    if edges[0] is None or edges[1] is None or not all(
        math.isclose(got, want, rel_tol=1e-12) for got, want in zip(edges, WINDOW)
    ):
        outcomes.append(Outcome("window rows", value_misses=[f"window rows {edges}"]))
    return outcomes


def check_verify_point(point):
    """One `qvortex verify` run: dict with n, p, returncode, checks.

    checks maps each check name to (passed, detail) as printed; bounds and
    linear_limit carry omega_sq (and phi_max) parsed from the detail.
    """
    n, p = point["n"], point["p"]
    out = Outcome(f"n={n},p={p:g}")
    checks = point["checks"]
    failing = [name for name, (ok, _) in checks.items() if not ok]
    if point["returncode"] != 0:
        out.reported_failure = "exit status %d: %s" % (
            point["returncode"], "; ".join(f"{k} {checks[k][1]}" for k in failing)
        )
    expected = {"orthonormality", "gradient_fd", "bounds", "decay", "linear_limit", "oracle_cross"}
    if set(checks) != expected:
        out.value_misses.append(f"checks printed {sorted(checks)}")
        return out
    if (point["returncode"] == 0) != (not failing):
        out.value_misses.append("exit status disagrees with the printed checks")
    bounds = point.get("bounds")
    if bounds is None:
        out.value_misses.append("bounds line unparsed")
    else:
        out.value_misses += _bound_misses(bounds["omega_sq"], bounds["phi_max"], n, p)
        if p == P and n in TABLE2_OMEGA:
            out.value_misses += _reference_misses(
                bounds["omega_sq"], bounds["phi_max"], TABLE2_OMEGA[n], TABLE2_PHIMAX[n]
            )
    lin = point.get("linear_omega_sq")
    if lin is None:
        out.value_misses.append("linear_limit line unparsed")
    elif abs(lin - linear_limit(n, p)) >= LINEAR_LIMIT_TOL:
        out.value_misses.append(f"linear-limit omega_sq {lin} vs {linear_limit(n, p):.6f}")
    return out
