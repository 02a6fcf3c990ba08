"""Command-line front end: solve, table sweeps, dispersion data, verification.

Commands
--------
solve          : one constrained solve; writes profile.csv, solution.json,
                 bounds.json
table1         : norm sweep q0 in {10, 50, 100, 200, 500, 1000}; table1.csv
table2         : winding sweep n in 1..5 at q0 = 100; table2.csv
dispersion     : log-spaced norm sweep for frequency-vs-norm data;
                 dispersion.csv
verify         : run the invariant suite at the configured parameters and
                 print one PASS/FAIL line per check; exit 0 iff all pass.
                 A winding past bessel_first_zero's order bound is a
                 config error
oracle-compare : spectral vs finite-difference solver at one (n, q0);
                 oracle_compare.json

Configuration is a flat key=value text file, overridable per key with
--set key=value and then with the dedicated flags --m, --n, --seed and
--out. A config-file line and a --set item are read by one rule; an
error in a file line is prefixed with path:line:. The keys and their
defaults are CONFIG_DEFAULTS: the fields of ModelParams, the basis size,
the numeric options of SolveConfig, and output_dir. The basis size m is
the one resolution number: every command integrates on ceil(4m/5) panels
of 8 Gauss points (build_grid's default order), 48 panels at the default
m = 60. The sweep commands table1, table2 and dispersion run one body:
build the basis, sweep, write one CSV, and exit 1 naming every row that
did not converge. Every CSV and JSON file echoes the package version and
the fully resolved configuration, and outputs are byte-deterministic for
a fixed configuration and seed: floats are written with 17 significant
digits (lossless for doubles) and nothing time- or host-dependent is
emitted. Every command's output was also byte-identical under 1 and 2
OpenBLAS threads (scipy-openblas 0.3.31, 2 vCPUs), apart from the
output_dir echo; other BLAS builds and thread counts are not measured.

main builds the basis once and hands it to the command. A failure is one
stderr line "error [stage] ...": [config] with exit 2, before any work;
then, with exit 1, [basis] while the basis is built, [write] for an output
that cannot be written, and [solve] for anything else, non-convergence too.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .basis import build_basis, evaluate_uniform, evaluate_uniform_derivatives
from .crosscheck import N_FD_MIN, bessel_first_zero, check_bessel_order, fd_minimize
from .model import BENCHMARK_Q0, ModelParams, theory_bounds
from .quadrature import build_grid
from .solver import (
    PROFILE_POINTS,
    SolveConfig,
    check_solution,
    gradient_fd_check,
    minimize_on_sphere,
)
from .sweep import sweep_n, sweep_q0
from .validation import check_positive, check_positive_int

__all__ = ["main"]

TABLE1_Q0 = (10.0, 50.0, 100.0, 200.0, 500.0, 1000.0)
TABLE2_N = (1, 2, 3, 4, 5)

# The flat key table of every command: the fields of ModelParams, the basis
# size, the numeric options of SolveConfig (q0 is a per-command flag;
# start_coeffs is not a number), and output_dir. Defaults are taken from
# where they are declared, the dataclasses. The grid follows basis_size (_build).
CONFIG_DEFAULTS = {
    **{f.name: f.default for f in fields(ModelParams)},
    "basis_size": 60,
    **{f.name: f.default for f in fields(SolveConfig) if isinstance(f.default, (int, float))},
    "output_dir": "out",
}


# The dedicated flags: flag, config key, type, help. Each beats --set for its key.
_FLAGS = (
    ("--out", "output_dir", str, "output directory"),
    ("--seed", "rng_seed", int,
     "rng seed >= 0 for verify's gradient-check points and for restarts > 0"),
    ("--m", "basis_size", int,
     "basis size m; the grid follows it, ceil(4m/5) panels of 8 Gauss points"),
    ("--n", "n", int, "winding number"),
)


def _coerce(key, raw):
    kind = type(CONFIG_DEFAULTS[key])
    try:
        return kind(raw)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{key} must be {what}, got {raw!r}") from None


def _assign(values, text, where=""):
    """Apply one key=value assignment to values; every error starts with where."""
    if "=" not in text:
        raise ValueError(f"{where}expected key=value, got {text!r}")
    key, raw = (part.strip() for part in text.split("=", 1))
    if key not in CONFIG_DEFAULTS:
        raise ValueError(f"{where}unknown config key {key!r}")
    try:
        values[key] = _coerce(key, raw)
    except ValueError as exc:
        raise ValueError(f"{where}{exc}") from None


def resolve_config(args):
    """Defaults, then config file, then --set overrides, then flags.

    A config file holds one assignment per line; '#' starts a comment and
    blank lines are ignored. Returns the resolved key table, its
    ModelParams, and its SolveConfig with a placeholder q0 that each
    command replaces. Invalid values, of the keys and of the command's own
    flags, raise ValueError here, before any command runs.
    """
    values = dict(CONFIG_DEFAULTS)
    if args.config:
        lines = Path(args.config).read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, 1):
            if stripped := line.split("#", 1)[0].strip():
                _assign(values, stripped, f"{args.config}:{lineno}: ")
    for item in args.set or []:
        _assign(values, item)
    for flag, key, _, _ in _FLAGS:
        if (value := getattr(args, flag[2:])) is not None:
            values[key] = value
    params = ModelParams(**{f.name: values[f.name] for f in fields(ModelParams)})
    config = SolveConfig(
        q0=1.0, **{f.name: values[f.name] for f in fields(SolveConfig) if f.name in values}
    )
    check_positive_int("basis_size", values["basis_size"])
    _check_flags(args, params)
    return values, params, config


def _check_flags(args, params):
    """Reject out-of-range values of the command's own flags, and windings verify cannot check."""
    if args.command == "verify":
        check_bessel_order(abs(params.n))  # the order bound of the linear-limit zero
    if args.command in ("solve", "oracle-compare"):
        check_positive("--q0", args.q0)
    if args.command == "oracle-compare":
        check_positive_int("--n-fd", args.n_fd, minimum=N_FD_MIN)
    if args.command == "dispersion":
        q0_min = check_positive("--q0-min", args.q0_min)
        q0_max = check_positive("--q0-max", args.q0_max)
        points = check_positive_int("--points", args.points, minimum=2)
        # the sweep's own Q0 list: a range whose points round to repeats fails here
        if not np.all(np.diff(np.geomspace(q0_min, q0_max, points)) > 0):
            raise ValueError(f"--q0-min {q0_min}, --q0-max {q0_max} and --points {points} "
                             "give no strictly ascending geometric Q0 list")


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _config_echo(cfg, extra):
    return dict(sorted({**cfg, **extra}.items()))


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_csv(path, cfg, extra, table):
    """A CSV artifact: '#' lines with the version and config echo, then the table."""
    lines = [f"# artifact_version={__version__}"]
    lines += [f"# {k}={_fmt(v)}" for k, v in _config_echo(cfg, extra).items()]
    lines += [",".join(_fmt(v) for v in row) for row in table]
    _write(path, "\n".join(lines) + "\n")


def _finite_or_null(value):
    """value with every non-finite float, at any depth, replaced by None."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(path, cfg, extra, payload):
    """A strict JSON artifact: payload plus the artifact_version and config keys.

    A non-finite float, such as the omega_sq of an overflowing solve, is
    written as null: NaN and Infinity are not JSON.
    """
    payload = {"artifact_version": __version__, "config": _config_echo(cfg, extra), **payload}
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False)
    _write(path, text + "\n")


def _build(cfg, params):
    """The basis of m = basis_size modes on ceil(4m/5) panels of build_grid's default order."""
    m = cfg["basis_size"]
    return build_basis(params, m, build_grid(params.p, panels=-(-4 * m // 5)))


def cmd_solve(cfg, params, solve, basis, args):
    q0 = args.q0
    out = Path(cfg["output_dir"])
    sol = minimize_on_sphere(basis, params, replace(solve, q0=q0))

    rho = np.linspace(0.0, params.p, PROFILE_POINTS)
    d1, d2 = evaluate_uniform_derivatives(basis, sol.coeffs, PROFILE_POINTS - 1)
    table = [("rho", "phi", "phi_rho", "phi_rhorho"),
             *zip(rho.tolist(), sol.profile.tolist(), d1.tolist(), d2.tolist())]
    extra = {"q0": q0}
    _write_csv(out / "profile.csv", cfg, extra, table)

    _write_json(
        out / "solution.json", cfg, extra,
        {
            "omega_sq": sol.omega_sq,
            "phi_max": sol.phi_max,
            "residual_error": sol.residual_error,
            "f_value": sol.f_value,
            "iterations": sol.iterations,
            "converged": sol.converged,
            "grad_norm": sol.grad_norm,
        },
    )
    _write_json(
        out / "bounds.json", cfg, extra,
        {"bounds": asdict(theory_bounds(params)), "checks": check_solution(sol, q0, params)},
    )
    if not sol.converged:
        print(
            f"error [solve]: did not converge (grad_norm={sol.grad_norm:.3e}); "
            "outputs written for diagnosis",
            file=sys.stderr,
        )
        return 1
    print(f"wrote {out / 'profile.csv'}, {out / 'solution.json'}, {out / 'bounds.json'}")
    return 0


_RECORD_FIELDS = ("omega_sq", "phi_max", "residual_error", "iterations", "converged")


def _records(axis, keys, solutions):
    """The table1/table2 table: the swept value, then the solution's record."""
    rows = [(key, *(getattr(sol, f) for f in _RECORD_FIELDS)) for key, sol in zip(keys, solutions)]
    return [(axis, *_RECORD_FIELDS), *rows]


def _sweep(cfg, params, basis, name, sweep, solve, axis, keys, table, extra):
    """The body of every sweep command: solve at each of keys, write one CSV.

    sweep(params, basis, keys, solve) gives one solution per key, and
    table(axis, keys, solutions) the CSV's header and rows. Returns 1, naming
    the keys of the rows that did not converge; the file is written either way.
    """
    out = Path(cfg["output_dir"])
    solutions = sweep(params, basis, list(keys), solve)
    _write_csv(out / name, cfg, extra, table(axis, keys, solutions))
    bad = [key for key, sol in zip(keys, solutions) if not sol.converged]
    if bad:
        print(f"error [solve]: rows did not converge at {axis} = {bad}", file=sys.stderr)
        return 1
    print(f"wrote {out / name}")
    return 0


def cmd_table1(cfg, params, solve, basis, args):
    return _sweep(cfg, params, basis, "table1.csv", sweep_q0, replace(solve, q0=TABLE1_Q0[0]),
                  "q0", TABLE1_Q0, _records, {"q0_list": ";".join(map(_fmt, TABLE1_Q0))})


def cmd_table2(cfg, params, solve, basis, args):
    return _sweep(cfg, params, basis, "table2.csv", sweep_n, replace(solve, q0=BENCHMARK_Q0),
                  "n", TABLE2_N, _records, {"q0": BENCHMARK_Q0})


def cmd_dispersion(cfg, params, solve, basis, args):
    q0_list = np.geomspace(args.q0_min, args.q0_max, args.points).tolist()
    bounds = theory_bounds(params)

    def table(axis, keys, solutions):
        return [("label", axis, "omega_sq"),
                *(("solution", q0, sol.omega_sq) for q0, sol in zip(keys, solutions)),
                ("omega_sq_min", "", bounds.omega_sq_min),
                ("omega_sq_max", "", bounds.omega_sq_max)]

    return _sweep(cfg, params, basis, "dispersion.csv", sweep_q0, replace(solve, q0=q0_list[0]),
                  "q0", q0_list, table,
                  {"q0_min": args.q0_min, "q0_max": args.q0_max, "points": args.points})


def _oracle_agreement(basis, sol, fd):
    """(|d omega_sq|, max profile difference on the oracle grid, agree).

    The spectral and finite-difference solutions agree when both solves
    converged, |d omega_sq| < 0.01 and the profiles differ by less than
    0.02 * phi_max. The oracle grid is uniform, rho_i = i*p/n_fd, so the
    spectral profile is sampled there by one FFT.
    """
    d_omega = abs(fd.omega_sq - sol.omega_sq)
    phi_at_fd = evaluate_uniform(basis, sol.coeffs, fd.grid_points.size - 1)
    d_prof = float(np.max(np.abs(phi_at_fd - fd.phi_values)))
    agree = sol.converged and fd.converged and d_omega < 0.01 and d_prof < 0.02 * sol.phi_max
    return d_omega, d_prof, agree


def cmd_verify(cfg, params, solve, basis, args):
    results = []

    def report(name, ok, detail):
        results.append(ok)
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")

    # W scaled to a unit diagonal has condition number at least 1/ratio^2,
    # so eps/ratio^2 is the roundoff scale of a solve with it
    ratio = basis.pivot_ratio
    report("orthonormality", np.finfo(float).eps / ratio**2 < 1e-8,
           f"smallest pivot ratio {ratio:.3e}")

    err = gradient_fd_check(basis, params, q0=BENCHMARK_Q0, seed=solve.rng_seed)
    report("gradient_fd", err < 1e-4, f"max relative error {err:.3e}")

    sol = minimize_on_sphere(basis, params, replace(solve, q0=BENCHMARK_Q0))
    checks = check_solution(sol, BENCHMARK_Q0, params)
    decay = checks.pop("decay_envelope")
    report(
        "bounds",
        sol.converged and all(check["pass"] for check in checks.values()),
        f"omega_sq {sol.omega_sq:.4f}, phi_max {sol.phi_max:.4f}, converged {sol.converged}",
    )
    report(
        "decay",
        sol.converged and decay["applicable"] and decay["pass"],
        f"p0 {decay['p0']}, worst excess {decay['worst_excess']:.3e}",
    )

    lin = minimize_on_sphere(basis, params, replace(solve, q0=0.01))
    target = 2.0 * params.lam * params.b + (bessel_first_zero(abs(params.n)) / params.p) ** 2
    report(
        "linear_limit",
        lin.converged and abs(lin.omega_sq - target) < 1e-3,
        f"omega_sq {lin.omega_sq:.6f} vs {target:.6f}, converged {lin.converged}",
    )

    fd = fd_minimize(params, BENCHMARK_Q0, n_fd=2000)
    d_omega, d_prof, agree = _oracle_agreement(basis, sol, fd)
    report("oracle_cross", agree, f"|d omega_sq| {d_omega:.2e}, profile diff {d_prof:.2e}")

    ok = all(results)
    print(f"verify: {'all checks passed' if ok else 'FAILURES present'}")
    return 0 if ok else 1


def cmd_oracle_compare(cfg, params, solve, basis, args):
    q0, n_fd = args.q0, args.n_fd
    out = Path(cfg["output_dir"])
    sol = minimize_on_sphere(basis, params, replace(solve, q0=q0))
    fd = fd_minimize(params, q0, n_fd=n_fd)
    d_omega, d_prof, ok = _oracle_agreement(basis, sol, fd)
    _write_json(
        out / "oracle_compare.json", cfg, {"q0": q0, "n_fd": n_fd},
        {
            "spectral_omega_sq": sol.omega_sq,
            "fd_omega_sq": fd.omega_sq,
            "fd_converged": fd.converged,
            "fd_iterations": fd.iterations,
            "delta_omega_sq": d_omega,
            "profile_max_diff": d_prof,
            "phi_max": sol.phi_max,
            "agree": ok,
        },
    )
    print(
        f"spectral omega_sq {sol.omega_sq:.6f} vs fd {fd.omega_sq:.6f} "
        f"(|delta| {d_omega:.2e}); profile max diff {d_prof:.2e}; "
        f"{'agree' if ok else 'DISAGREE'}"
    )
    return 0 if ok else 1


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once; main dispatches on args.command."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a flat key=value config file")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    for flag, key, kind, text in _FLAGS:
        common.add_argument(flag, type=kind, help=f"{text} (config key {key})")

    parser = argparse.ArgumentParser(
        prog="qvortex",
        description="spectral solver for spinning ring-soliton profiles",
    )
    parser.add_argument("--version", action="version", version=f"qvortex {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[common], help="one constrained solve")
    p_solve.add_argument("--q0", type=float, default=BENCHMARK_Q0, help="prescribed reduced norm")

    sub.add_parser("table1", parents=[common], help="norm sweep at n from config")
    sub.add_parser("table2", parents=[common], help="winding sweep 1..5 at q0=100")

    p_disp = sub.add_parser("dispersion", parents=[common], help="frequency vs norm data")
    p_disp.add_argument("--q0-min", type=float, default=10.0)
    p_disp.add_argument("--q0-max", type=float, default=1000.0)
    p_disp.add_argument("--points", type=int, default=25)

    sub.add_parser("verify", parents=[common], help="run the invariant suite")

    p_oracle = sub.add_parser("oracle-compare", parents=[common],
                              help="spectral vs finite-difference cross-check")
    p_oracle.add_argument("--q0", type=float, default=BENCHMARK_Q0)
    p_oracle.add_argument("--n-fd", type=int, default=2000)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg, params, solve = resolve_config(args)
    except (ValueError, OSError) as exc:
        print(f"error [config]: {exc}", file=sys.stderr)
        return 2
    stage = "basis"
    try:
        basis = _build(cfg, params)
        stage = "solve"
        # looked up per call, so a patched module global takes effect
        return globals()["cmd_" + args.command.replace("-", "_")](cfg, params, solve, basis, args)
    except Exception as exc:
        # past the config, _write makes a command's only file-system calls
        print(f"error [{'write' if isinstance(exc, OSError) else stage}] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
