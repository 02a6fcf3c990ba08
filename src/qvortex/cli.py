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
are CONFIG_DEFAULTS: the fields of ModelParams, the discretization and the
numeric options of SolveConfig (estimator.PIPELINE_DEFAULTS), and
output_dir. The fully resolved configuration and the package version are
echoed into every output file, and outputs are byte-deterministic for a
fixed configuration and seed: floats are written with 17 significant digits
(lossless for doubles) and nothing time- or host-dependent is emitted.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .basis import build_basis, evaluate, evaluate_derivatives
from .crosscheck import bessel_first_zero, fd_minimize
from .estimator import PIPELINE_DEFAULTS, split_config
from .model import (
    BENCHMARK_Q0,
    satisfies_amplitude_ceiling,
    satisfies_necessary_condition,
    satisfies_norm_threshold,
    theory_bounds,
)
from .quadrature import build_grid
from .solver import (
    SolveConfig,
    check_decay_envelope,
    dense_profile,
    gradient_fd_check,
    minimize_on_sphere,
    residual_error_split,
)
from .sweep import sweep_n, sweep_q0

__all__ = ["main"]

TABLE1_Q0 = (10.0, 50.0, 100.0, 200.0, 500.0, 1000.0)
TABLE2_N = (1, 2, 3, 4, 5)

CONFIG_DEFAULTS = {**PIPELINE_DEFAULTS, "output_dir": "out"}


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
    with a placeholder q0 that each command replaces. Invalid values raise
    ValueError here, before any command runs.
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
    params, solve = split_config(values)
    return values, params, SolveConfig(q0=1.0, **solve)


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
    q0 = float(q0)
    if q0 <= 0.0:
        raise RuntimeError(f"[config] q0 must be positive, got {q0}")
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

    bounds = theory_bounds(params)
    nec = satisfies_necessary_condition(sol.omega_sq, params)
    ceil_ok, ceil_app = satisfies_amplitude_ceiling(sol.phi_max, sol.omega_sq, params)
    thr_ok, thr_app = satisfies_norm_threshold(q0, sol.omega_sq, params)
    dec_app, dec_ok, dec_worst = check_decay_envelope(
        basis, sol.coeffs, sol.omega_sq, params
    )
    _write_json(
        out / "bounds.json",
        {
            "artifact_version": __version__,
            "config": _config_echo(cfg, extra),
            "bounds": {
                "omega_sq_min": bounds.omega_sq_min,
                "omega_sq_max": bounds.omega_sq_max,
                "omega_sq_necessary": bounds.omega_sq_necessary,
                "phi_max_ceiling": bounds.phi_max_ceiling,
                "q0_threshold": bounds.q0_threshold,
                "p_star": bounds.p_star,
                "p_star_omega_sq": bounds.p_star_omega_sq,
            },
            "checks": {
                "necessary_condition": {"pass": bool(nec)},
                "amplitude_ceiling": {"applicable": bool(ceil_app), "pass": bool(ceil_ok)},
                "norm_threshold": {"applicable": bool(thr_app), "pass": bool(thr_ok)},
                "decay_envelope": {
                    "applicable": bool(dec_app),
                    "pass": bool(dec_ok),
                    "worst_excess": dec_worst,
                    "p0": 0.75 * params.p,
                },
            },
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


def _records_csv(cfg, path, first_col, records, extra):
    header = [first_col, "omega_sq", "phi_max", "residual_error", "iterations", "converged"]
    rows = [
        (
            getattr(rec, first_col),
            rec.omega_sq,
            rec.phi_max,
            rec.residual_error,
            rec.iterations,
            rec.converged,
        )
        for rec in records
    ]
    _write(path, _csv_text(cfg, header, rows, extra))


def cmd_table1(cfg, params, solve):
    out = Path(cfg["output_dir"])
    basis = _stage("basis")(_build)(cfg, params)
    records = _stage("solve")(sweep_q0)(
        params, basis, list(TABLE1_Q0), replace(solve, q0=TABLE1_Q0[0])
    )
    _records_csv(cfg, out / "table1.csv", "q0", records, {"q0_list": ";".join(map(_fmt, TABLE1_Q0))})
    bad = [rec.q0 for rec in records if not rec.converged]
    if bad:
        print(f"error [solve]: rows did not converge at q0 = {bad}", file=sys.stderr)
        return 1
    print(f"wrote {out / 'table1.csv'}")
    return 0


def cmd_table2(cfg, params, solve):
    out = Path(cfg["output_dir"])
    basis = _stage("basis")(_build)(cfg, params)
    records = _stage("solve")(sweep_n)(
        params, basis, list(TABLE2_N), BENCHMARK_Q0, replace(solve, q0=BENCHMARK_Q0)
    )
    _records_csv(cfg, out / "table2.csv", "n", records, {"q0": BENCHMARK_Q0})
    bad = [rec.n for rec in records if not rec.converged]
    if bad:
        print(f"error [solve]: rows did not converge at n = {bad}", file=sys.stderr)
        return 1
    print(f"wrote {out / 'table2.csv'}")
    return 0


def cmd_dispersion(cfg, params, solve, q0_min, q0_max, points):
    out = Path(cfg["output_dir"])
    if not q0_min < q0_max:
        raise RuntimeError(f"[config] need q0_min < q0_max, got {q0_min} >= {q0_max}")
    if points < 2:
        raise RuntimeError(f"[config] need points >= 2, got {points}")
    basis = _stage("basis")(_build)(cfg, params)
    q0_values = np.geomspace(q0_min, q0_max, points)
    records = _stage("solve")(sweep_q0)(
        params, basis, q0_values.tolist(), replace(solve, q0=q0_values[0])
    )
    bounds = theory_bounds(params)
    rows = [("solution", rec.q0, rec.omega_sq) for rec in records]
    rows.append(("omega_sq_min", "", bounds.omega_sq_min))
    rows.append(("omega_sq_max", "", bounds.omega_sq_max))
    extra = {"q0_min": q0_min, "q0_max": q0_max, "points": points}
    _write(out / "dispersion.csv", _csv_text(cfg, ["label", "q0", "omega_sq"], rows, extra))
    bad = [rec.q0 for rec in records if not rec.converged]
    if bad:
        print(f"error [solve]: rows did not converge at q0 = {bad}", file=sys.stderr)
        return 1
    print(f"wrote {out / 'dispersion.csv'}")
    return 0


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
    nec = satisfies_necessary_condition(sol.omega_sq, params)
    ceil_ok, _ = satisfies_amplitude_ceiling(sol.phi_max, sol.omega_sq, params)
    thr_ok, _ = satisfies_norm_threshold(BENCHMARK_Q0, sol.omega_sq, params)
    window_ok = bounds.omega_sq_min < sol.omega_sq < bounds.omega_sq_max
    report(
        "bounds",
        sol.converged and nec and ceil_ok and thr_ok and window_ok,
        f"omega_sq {sol.omega_sq:.4f}, phi_max {sol.phi_max:.4f}, converged {sol.converged}",
    )

    p0 = 0.75 * params.p if decay_p0 is None else float(decay_p0)
    dec_app, dec_ok, dec_worst = check_decay_envelope(
        basis, sol.coeffs, sol.omega_sq, params, p0=p0
    )
    report("decay", dec_app and dec_ok, f"p0 {p0}, worst excess {dec_worst:.3e}")

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
    d_omega = abs(fd.omega_sq - spec_sol.omega_sq)
    phi_at_fd = evaluate(basis, spec_sol.coeffs, fd.grid_points)
    d_prof = float(np.max(np.abs(phi_at_fd - fd.phi_values)))
    report(
        "oracle_cross",
        d_omega < 0.01 and d_prof < 0.02 * spec_sol.phi_max,
        f"|d omega_sq| {d_omega:.2e}, profile diff {d_prof:.2e}",
    )

    ok = all(results)
    print(f"verify: {'all checks passed' if ok else 'FAILURES present'}")
    return 0 if ok else 1


def cmd_oracle_compare(cfg, params, solve, q0, n_fd):
    out = Path(cfg["output_dir"])
    basis = _stage("basis")(_build)(cfg, params)
    sol = _stage("solve")(minimize_on_sphere)(basis, params, replace(solve, q0=q0))
    fd = _stage("oracle")(fd_minimize)(params, q0, n_fd=n_fd)
    phi_at_fd = evaluate(basis, sol.coeffs, fd.grid_points)
    d_prof = float(np.max(np.abs(phi_at_fd - fd.phi_values)))
    d_omega = abs(fd.omega_sq - sol.omega_sq)
    ok = d_omega < 0.01 and d_prof < 0.02 * sol.phi_max
    payload = {
        "artifact_version": __version__,
        "config": _config_echo(cfg, {"q0": float(q0), "n_fd": int(n_fd)}),
        "spectral_omega_sq": sol.omega_sq,
        "fd_omega_sq": fd.omega_sq,
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
    common.add_argument("--seed", type=int, help="rng seed (config key rng_seed)")
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
        return 2 if "[config]" in str(exc) else 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
