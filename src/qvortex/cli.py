"""Command-line front end: solve, table sweeps, dispersion data, verification.

Commands
--------
solve          : one constrained solve; writes profile.csv, solution.json,
                 bounds.json
table1         : norm sweep q0 in {10, 50, 100, 200, 500, 1000}; table1.csv
table2         : winding sweep n in 1..5 at q0 = 100; table2.csv
dispersion     : log-spaced norm sweep for frequency-vs-norm data;
                 dispersion.csv
verify         : run the invariant suite and print one PASS/FAIL line per
                 check; exit 0 iff all pass
oracle-compare : spectral vs finite-difference solver at one (n, q0);
                 oracle_compare.json

Configuration is a flat key=value text file, overridable per key with
--set key=value and with the dedicated flags. The keys and their defaults
are CONFIG_DEFAULTS: the fields of ModelParams, the discretization, the
numeric options of SolveConfig, and output_dir. The fully resolved
configuration and the package version are echoed into every output file,
and outputs are byte-deterministic for a fixed configuration, seed and BLAS
thread count: floats are written with 17 significant digits (lossless for
doubles) and nothing time- or host-dependent is emitted.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .basis import build_basis, evaluate, evaluate_derivatives
from .crosscheck import BESSEL_ORDER_MAX, N_FD_MIN, bessel_first_zero, fd_minimize
from .model import BENCHMARK_Q0, ModelParams, theory_bounds
from .quadrature import ORDER_PER_PANEL_MIN, build_grid
from .solver import (
    SolveConfig,
    check_solution,
    dense_profile,
    gradient_fd_check,
    minimize_on_sphere,
    residual_error_split,
)
from .sweep import sweep_n, sweep_q0
from .validation import check_positive, check_positive_int

__all__ = ["main"]

TABLE1_Q0 = (10.0, 50.0, 100.0, 200.0, 500.0, 1000.0)
TABLE2_N = (1, 2, 3, 4, 5)

_GRID_DEFAULTS = inspect.signature(build_grid).parameters

# The flat key table of every command: the fields of ModelParams, the
# discretization, the numeric options of SolveConfig (q0 is a per-command
# flag; start_coeffs is not a number), and output_dir. Defaults are taken
# from where they are declared: the dataclasses and build_grid's signature.
CONFIG_DEFAULTS = {
    **{f.name: f.default for f in fields(ModelParams)},
    "basis_size": 60,
    "quad_panels": _GRID_DEFAULTS["panels"].default,
    "quad_order": _GRID_DEFAULTS["order_per_panel"].default,
    **{f.name: f.default for f in fields(SolveConfig) if isinstance(f.default, (int, float))},
    "output_dir": "out",
}


def _coerce(key, raw):
    return type(CONFIG_DEFAULTS[key])(raw)


def parse_config_file(path):
    """Flat key=value file; '#' starts a comment, blank lines ignored."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in CONFIG_DEFAULTS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def resolve_config(args):
    """Defaults, then config file, then --set overrides, then flags.

    Returns the resolved key table, its ModelParams, and its SolveConfig
    with a placeholder q0 that each command replaces. Invalid values, of
    the keys and of the command's own flags, raise ValueError here, before
    any command runs.
    """
    values = dict(CONFIG_DEFAULTS)
    if args.config:
        values.update(parse_config_file(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in CONFIG_DEFAULTS:
            raise ValueError(f"unknown config key {key!r} in --set")
        values[key] = _coerce(key, raw)
    if args.m is not None:
        values["basis_size"] = int(args.m)
    if getattr(args, "n", None) is not None:
        values["n"] = int(args.n)
    if args.seed is not None:
        values["rng_seed"] = int(args.seed)
    if args.out is not None:
        values["output_dir"] = str(args.out)
    params = ModelParams(**{f.name: values[f.name] for f in fields(ModelParams)})
    config = SolveConfig(
        q0=1.0, **{f.name: values[f.name] for f in fields(SolveConfig) if f.name in values}
    )
    check_positive_int("basis_size", values["basis_size"])
    check_positive_int("quad_panels", values["quad_panels"])
    check_positive_int("quad_order", values["quad_order"], minimum=ORDER_PER_PANEL_MIN)
    _check_flags(args, params)
    return values, params, config


def _check_flags(args, params):
    """Reject out-of-range values of the command's own flags."""
    if args.command in ("solve", "oracle-compare"):
        check_positive("--q0", args.q0)
    if args.command == "oracle-compare":
        check_positive_int("--n-fd", args.n_fd, minimum=N_FD_MIN)
    if args.command == "dispersion":
        q0_min = check_positive("--q0-min", args.q0_min)
        q0_max = check_positive("--q0-max", args.q0_max)
        if not q0_min < q0_max:
            raise ValueError(f"need --q0-min < --q0-max, got {q0_min} >= {q0_max}")
        check_positive_int("--points", args.points, minimum=2)
    if args.command == "verify":
        if abs(params.n) > BESSEL_ORDER_MAX:
            raise ValueError(f"--n must lie in -{BESSEL_ORDER_MAX}..{BESSEL_ORDER_MAX} "
                             f"for the linear-limit check, got {params.n}")
        if args.decay_p0 is not None and not 0.0 < args.decay_p0 < params.p:
            raise ValueError(f"--decay-p0 must lie in (0, {params.p}), got {args.decay_p0}")


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _config_echo(cfg, extra=None):
    return dict(sorted({**cfg, **(extra or {})}.items()))


def _csv_text(cfg, header, rows, extra=None):
    lines = [f"# artifact_version={__version__}"]
    lines += [f"# {k}={_fmt(v)}" for k, v in _config_echo(cfg, extra).items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_json(path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _build(cfg, params):
    grid = build_grid(params.p, cfg["quad_panels"], cfg["quad_order"])
    return build_basis(params, cfg["basis_size"], grid)


def _stage(name):
    def decorate(fn):
        def wrapped(*a, **kw):
            try:
                return fn(*a, **kw)
            except Exception as exc:
                raise RuntimeError(f"[{name}] {exc}") from exc

        return wrapped

    return decorate


def cmd_solve(cfg, params, solve, q0):
    out = Path(cfg["output_dir"])
    basis = _stage("basis")(_build)(cfg, params)
    sol = _stage("solve")(minimize_on_sphere)(basis, params, replace(solve, q0=q0))

    rho, phi = dense_profile(basis, sol.coeffs)
    d1, d2 = evaluate_derivatives(basis, sol.coeffs, rho)
    profile_rows = zip(rho.tolist(), phi.tolist(), d1.tolist(), d2.tolist())
    extra = {"q0": q0}
    _write(
        out / "profile.csv",
        _csv_text(cfg, ["rho", "phi", "phi_rho", "phi_rhorho"], profile_rows, extra),
    )

    re_total, re_first = residual_error_split(sol.coeffs, sol.omega_sq, basis, params)
    _write_json(
        out / "solution.json",
        {
            "artifact_version": __version__,
            "config": _config_echo(cfg, extra),
            "omega_sq": sol.omega_sq,
            "phi_max": sol.phi_max,
            "residual_error": re_total,
            "residual_error_first_panel": re_first,
            "f_value": sol.f_value,
            "iterations": sol.iterations,
            "converged": sol.converged,
            "grad_norm": sol.grad_norm,
        },
    )

    _write_json(
        out / "bounds.json",
        {
            "artifact_version": __version__,
            "config": _config_echo(cfg, extra),
            "bounds": asdict(theory_bounds(params)),
            "checks": check_solution(basis, sol, q0, params),
        },
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


def _records_csv(cfg, path, first_col, keys, solutions, extra):
    """One row per (key, solution) pair, the key in column first_col."""
    header = [first_col, "omega_sq", "phi_max", "residual_error", "iterations", "converged"]
    rows = [
        (key, sol.omega_sq, sol.phi_max, sol.residual_error, sol.iterations, sol.converged)
        for key, sol in zip(keys, solutions)
    ]
    _write(path, _csv_text(cfg, header, rows, extra))


def _unconverged(keys, solutions):
    return [key for key, sol in zip(keys, solutions) if not sol.converged]


def cmd_table1(cfg, params, solve):
    out = Path(cfg["output_dir"])
    basis = _stage("basis")(_build)(cfg, params)
    solutions = _stage("solve")(sweep_q0)(
        params, basis, list(TABLE1_Q0), replace(solve, q0=TABLE1_Q0[0])
    )
    _records_csv(
        cfg, out / "table1.csv", "q0", TABLE1_Q0, solutions,
        {"q0_list": ";".join(map(_fmt, TABLE1_Q0))},
    )
    bad = _unconverged(TABLE1_Q0, solutions)
    if bad:
        print(f"error [solve]: rows did not converge at q0 = {bad}", file=sys.stderr)
        return 1
    print(f"wrote {out / 'table1.csv'}")
    return 0


def cmd_table2(cfg, params, solve):
    out = Path(cfg["output_dir"])
    basis = _stage("basis")(_build)(cfg, params)
    solutions = _stage("solve")(sweep_n)(
        params, basis, list(TABLE2_N), replace(solve, q0=BENCHMARK_Q0)
    )
    _records_csv(cfg, out / "table2.csv", "n", TABLE2_N, solutions, {"q0": BENCHMARK_Q0})
    bad = _unconverged(TABLE2_N, solutions)
    if bad:
        print(f"error [solve]: rows did not converge at n = {bad}", file=sys.stderr)
        return 1
    print(f"wrote {out / 'table2.csv'}")
    return 0


def cmd_dispersion(cfg, params, solve, q0_min, q0_max, points):
    out = Path(cfg["output_dir"])
    basis = _stage("basis")(_build)(cfg, params)
    q0_list = np.geomspace(q0_min, q0_max, points).tolist()
    solutions = _stage("solve")(sweep_q0)(
        params, basis, q0_list, replace(solve, q0=q0_list[0])
    )
    bounds = theory_bounds(params)
    rows = [("solution", q0, sol.omega_sq) for q0, sol in zip(q0_list, solutions)]
    rows.append(("omega_sq_min", "", bounds.omega_sq_min))
    rows.append(("omega_sq_max", "", bounds.omega_sq_max))
    extra = {"q0_min": q0_min, "q0_max": q0_max, "points": points}
    _write(out / "dispersion.csv", _csv_text(cfg, ["label", "q0", "omega_sq"], rows, extra))
    bad = _unconverged(q0_list, solutions)
    if bad:
        print(f"error [solve]: rows did not converge at q0 = {bad}", file=sys.stderr)
        return 1
    print(f"wrote {out / 'dispersion.csv'}")
    return 0


def _oracle_agreement(basis, sol, fd):
    """(|d omega_sq|, max profile difference on the oracle grid, agree).

    The spectral and finite-difference solutions agree when the
    finite-difference solve converged, |d omega_sq| < 0.01 and the profiles
    differ by less than 0.02 * phi_max.
    """
    d_omega = abs(fd.omega_sq - sol.omega_sq)
    phi_at_fd = evaluate(basis, sol.coeffs, fd.grid_points)
    d_prof = float(np.max(np.abs(phi_at_fd - fd.phi_values)))
    return d_omega, d_prof, fd.converged and d_omega < 0.01 and d_prof < 0.02 * sol.phi_max


def cmd_verify(cfg, params, solve, decay_p0=None):
    results = []

    def report(name, ok, detail):
        results.append(ok)
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
        return ok

    basis = None
    try:
        basis = _build(cfg, params)
        resid = basis.orthonormality_residual
        report("orthonormality", resid < 1e-8, f"residual {resid:.3e}")
    except Exception as exc:
        report("orthonormality", False, str(exc))

    if basis is None:
        for name in ("gradient_fd", "bounds", "decay", "linear_limit", "oracle_cross"):
            report(name, False, "skipped: basis unavailable")
        return 1

    err = gradient_fd_check(basis, params, q0=BENCHMARK_Q0, n_points=10, seed=solve.rng_seed)
    report("gradient_fd", err < 1e-4, f"max relative error {err:.3e}")

    sol = minimize_on_sphere(basis, params, replace(solve, q0=BENCHMARK_Q0))
    bounds = theory_bounds(params)
    checks = check_solution(basis, sol, BENCHMARK_Q0, params, decay_p0)
    decay = checks.pop("decay_envelope")
    window_ok = bounds.omega_sq_min < sol.omega_sq < bounds.omega_sq_max
    report(
        "bounds",
        sol.converged and window_ok and all(check["pass"] for check in checks.values()),
        f"omega_sq {sol.omega_sq:.4f}, phi_max {sol.phi_max:.4f}, converged {sol.converged}",
    )
    report(
        "decay",
        decay["applicable"] and decay["pass"],
        f"p0 {decay['p0']}, worst excess {decay['worst_excess']:.3e}",
    )

    lin = minimize_on_sphere(basis, params, replace(solve, q0=0.01))
    target = 2.0 * params.lam * params.b + (bessel_first_zero(abs(params.n)) / params.p) ** 2
    report(
        "linear_limit",
        abs(lin.omega_sq - target) < 1e-3,
        f"omega_sq {lin.omega_sq:.6f} vs {target:.6f}",
    )

    oracle_params = replace(params, n=1)
    spec_sol = (
        sol
        if params.n == 1
        else minimize_on_sphere(basis, oracle_params, replace(solve, q0=BENCHMARK_Q0))
    )
    fd = fd_minimize(oracle_params, BENCHMARK_Q0, n_fd=2000)
    d_omega, d_prof, agree = _oracle_agreement(basis, spec_sol, fd)
    report("oracle_cross", agree, f"|d omega_sq| {d_omega:.2e}, profile diff {d_prof:.2e}")

    ok = all(results)
    print(f"verify: {'all checks passed' if ok else 'FAILURES present'}")
    return 0 if ok else 1


def cmd_oracle_compare(cfg, params, solve, q0, n_fd):
    out = Path(cfg["output_dir"])
    basis = _stage("basis")(_build)(cfg, params)
    sol = _stage("solve")(minimize_on_sphere)(basis, params, replace(solve, q0=q0))
    fd = _stage("oracle")(fd_minimize)(params, q0, n_fd=n_fd)
    d_omega, d_prof, ok = _oracle_agreement(basis, sol, fd)
    payload = {
        "artifact_version": __version__,
        "config": _config_echo(cfg, {"q0": float(q0), "n_fd": int(n_fd)}),
        "spectral_omega_sq": sol.omega_sq,
        "fd_omega_sq": fd.omega_sq,
        "fd_converged": fd.converged,
        "fd_iterations": fd.iterations,
        "delta_omega_sq": d_omega,
        "profile_max_diff": d_prof,
        "phi_max": sol.phi_max,
        "agree": ok,
    }
    _write_json(out / "oracle_compare.json", payload)
    print(
        f"spectral omega_sq {sol.omega_sq:.6f} vs fd {fd.omega_sq:.6f} "
        f"(|delta| {d_omega:.2e}); profile max diff {d_prof:.2e}; "
        f"{'agree' if ok else 'DISAGREE'}"
    )
    return 0 if ok else 1


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a flat key=value config file")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    common.add_argument("--out", help="output directory (config key output_dir)")
    common.add_argument("--seed", type=int,
                        help="rng seed >= 0 for verify's gradient-check points and for "
                             "restarts > 0 (config key rng_seed)")
    common.add_argument("--m", type=int, help="basis size (config key basis_size)")
    common.add_argument("--n", type=int, help="winding number (config key n)")

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

    p_verify = sub.add_parser("verify", parents=[common], help="run the invariant suite")
    p_verify.add_argument("--decay-p0", type=float, default=None,
                          help="inner radius of the tail check (default 0.75*p)")

    p_oracle = sub.add_parser("oracle-compare", parents=[common],
                              help="spectral vs finite-difference cross-check")
    p_oracle.add_argument("--q0", type=float, default=BENCHMARK_Q0)
    p_oracle.add_argument("--n-fd", type=int, default=2000)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        run = resolve_config(args)
    except (ValueError, OSError) as exc:
        print(f"error [config]: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "solve":
            return cmd_solve(*run, args.q0)
        if args.command == "table1":
            return cmd_table1(*run)
        if args.command == "table2":
            return cmd_table2(*run)
        if args.command == "dispersion":
            return cmd_dispersion(*run, args.q0_min, args.q0_max, args.points)
        if args.command == "verify":
            return cmd_verify(*run, args.decay_p0)
        if args.command == "oracle-compare":
            return cmd_oracle_compare(*run, args.q0, args.n_fd)
    except RuntimeError as exc:
        print(f"error {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
