import ast
import inspect
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qvortex
from qvortex import (
    PROFILE_POINTS,
    ModelParams,
    SolveConfig,
    build_basis,
    build_grid,
    evaluate_uniform,
    fd_minimize,
    minimize_on_sphere,
)
import qvortex.cli
from qvortex.cli import CONFIG_DEFAULTS, _coerce, _oracle_agreement, main

TABLE1_HEADER = "q0,omega_sq,phi_max,residual_error,iterations,converged"
TABLE2_HEADER = "n,omega_sq,phi_max,residual_error,iterations,converged"


def run(*argv):
    return main(list(argv))


def data_lines(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


class TestSolveCommand:
    def test_writes_profile_solution_and_bounds(self, tmp_path):
        out = tmp_path / "run"
        assert run("solve", "--q0", "100", "--out", str(out)) == 0
        sol = json.loads((out / "solution.json").read_text())
        assert sol["converged"] is True
        assert sol["omega_sq"] == pytest.approx(0.4287, abs=0.02)
        assert sol["config"]["q0"] == 100.0
        assert sol["artifact_version"]
        bounds = json.loads((out / "bounds.json").read_text())
        assert bounds["bounds"]["omega_sq_max"] == pytest.approx(2.2)
        assert all(chk["pass"] for chk in bounds["checks"].values())
        lines = data_lines(out / "profile.csv")
        assert lines[0] == "rho,phi,phi_rho,phi_rhorho"
        assert len(lines) == 1 + 2001
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0

    def test_solution_json_reports_the_solve_s_own_residual(self, tmp_path, solve):
        # one residual per solve: the file carries minimize_on_sphere's
        # residual_error as it is, and no second residual key
        out = tmp_path / "run"
        assert run("solve", "--q0", "100", "--out", str(out)) == 0
        sol = json.loads((out / "solution.json").read_text())
        assert sorted(sol) == sorted([
            "artifact_version", "config", "omega_sq", "phi_max", "residual_error",
            "f_value", "iterations", "converged", "grad_norm",
        ])
        assert sol["residual_error"].hex() == solve(100.0).residual_error.hex()

    def test_profile_derivatives_match_the_direct_series(self, tmp_path, basis, solve):
        # the default configuration is the shared basis at q0 = 100: the phi
        # column is its dense profile, and phi_rho and phi_rhorho are the
        # differentiated sine series summed directly at the file's radii;
        # measured 7.9e-16 (phi_rho) and 1.7e-15 (phi_rhorho) of the column maximum
        out = tmp_path / "run"
        assert run("solve", "--out", str(out)) == 0
        lines = data_lines(out / "profile.csv")
        rho, phi, d1, d2 = np.array([line.split(",") for line in lines[1:]], dtype=float).T
        c = solve(100.0).coeffs
        assert np.array_equal(phi, evaluate_uniform(basis, c, PROFILE_POINTS - 1))
        freq = np.arange(1, basis.m + 1) * (np.pi / basis.p)
        arg = rho[:, None] * freq
        for got, direct in ((d1, np.cos(arg) @ (c * freq)), (d2, -np.sin(arg) @ (c * freq**2))):
            assert np.max(np.abs(got - direct)) <= 1e-13 * np.max(np.abs(got))

    def test_negative_winding_matches_positive(self, tmp_path):
        # the model depends on n only through n^2: every output but the
        # config echo is the same for n = -2 and n = 2
        outputs = []
        for n in ("2", "-2"):
            out = tmp_path / n
            assert run("solve", "--n", n, "--out", str(out)) == 0
            payloads = [json.loads((out / name).read_text())
                        for name in ("solution.json", "bounds.json")]
            for payload in payloads:
                assert payload.pop("config")["n"] == int(n)
            outputs.append((payloads, data_lines(out / "profile.csv")))
        assert outputs[0] == outputs[1]

    def test_rejects_nonpositive_norm(self, tmp_path, capsys):
        assert run("solve", "--q0", "0", "--out", str(tmp_path)) == 2
        assert "q0" in capsys.readouterr().err

    def test_rejects_shallow_potential_well(self, tmp_path, capsys):
        assert run("solve", "--set", "b=0.9", "--out", str(tmp_path)) == 2
        assert "a_pot^2/4" in capsys.readouterr().err

    def test_rejects_a_window_empty_in_doubles(self, tmp_path, capsys):
        # 2*lam*(b - a_pot^2/4) == 2*lam*b in doubles, where theory_bounds cannot work
        assert run("solve", "--set", "a_pot=1e-300", "--set", "b=1", "--out", str(tmp_path)) == 2
        assert capsys.readouterr().err.startswith("error [config]: the window ")

    @pytest.mark.parametrize("argv", [["--n", "300"], ["--set", "p=1e5"], ["--set", "p=1e9"]],
                             ids=["n=300", "p=1e5", "p=1e9"])
    def test_extreme_winding_and_radius_converge(self, tmp_path, argv):
        # the ring bump must stay finite at |n| = 300; past p = 1e5 the thin wall is zero
        # at every node and must not be offered
        assert run("solve", *argv, "--out", str(tmp_path)) == 0

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_overflowing_norm_writes_its_files_and_fails(self, tmp_path, capsys):
        # omega_sq is NaN: the decay envelope does not apply, and the solve did not converge
        assert run("solve", "--q0", "1e300", "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err.startswith("error [solve]: did not converge")
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "bounds.json", "profile.csv", "solution.json"]

    def test_nonconvergence_gives_nonzero_exit(self, tmp_path, capsys):
        rc = run(
            "solve", "--q0", "100", "--out", str(tmp_path),
            "--set", "max_iter=2", "--set", "grad_tol=1e-14",
        )
        assert rc == 1
        assert "converge" in capsys.readouterr().err

    @pytest.mark.parametrize("m", [60, 129, 240])
    def test_grid_follows_the_basis_size(self, tmp_path, m):
        # --m alone sets the resolution: the solve runs on ceil(4m/5) panels
        # of build_grid's default order (48 panels at the default m = 60)
        assert run("solve", "--m", str(m), "--out", str(tmp_path)) == 0
        omega_sq = json.loads((tmp_path / "solution.json").read_text())["omega_sq"]
        params = ModelParams()
        basis = build_basis(params, m, build_grid(20.0, panels=math.ceil(4 * m / 5)))
        assert omega_sq == minimize_on_sphere(basis, params, SolveConfig(q0=100.0)).omega_sq

    def test_unwritable_output_is_a_write_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run("solve", "--out", str(blocker / "x")) == 1
        assert capsys.readouterr().err.startswith("error [write] ")


class TestTable1Command:
    def test_header_rows_and_determinism(self, tmp_path):
        out = tmp_path / "t1"
        assert run("table1", "--out", str(out)) == 0
        first = (out / "table1.csv").read_bytes()
        lines = data_lines(out / "table1.csv")
        assert lines[0] == TABLE1_HEADER
        assert len(lines) == 1 + 6
        assert [row.split(",")[0] for row in lines[1:]] == [
            "10", "50", "100", "200", "500", "1000",
        ]
        assert all(row.split(",")[-1] == "true" for row in lines[1:])
        assert run("table1", "--out", str(out)) == 0
        assert (out / "table1.csv").read_bytes() == first

    def test_seventeen_significant_digits(self, tmp_path):
        out = tmp_path / "t1"
        assert run("table1", "--out", str(out)) == 0
        omega = data_lines(out / "table1.csv")[1].split(",")[1]
        assert float(omega) == float(format(float(omega), ".17g"))
        assert len(omega.replace(".", "").lstrip("0")) >= 16

    def test_config_echo_present(self, tmp_path):
        out = tmp_path / "t1"
        assert run("table1", "--out", str(out)) == 0
        text = (out / "table1.csv").read_text()
        assert "# artifact_version=" in text
        assert "# basis_size=60" in text
        assert "# rng_seed=0" in text
        assert "# restarts=0" in text


class TestTable2Command:
    def test_rows_and_trend(self, tmp_path):
        out = tmp_path / "t2"
        assert run("table2", "--out", str(out)) == 0
        lines = data_lines(out / "table2.csv")
        assert lines[0] == TABLE2_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == ["1", "2", "3", "4", "5"]
        omegas = [float(row[1]) for row in rows]
        assert all(a < b for a, b in zip(omegas, omegas[1:]))

    def test_zero_winding_rejected(self, tmp_path, capsys):
        assert run("table2", "--out", str(tmp_path), "--n", "0") == 2
        assert "nonzero integer" in capsys.readouterr().err

    def test_agreement_across_blas_thread_counts(self, tmp_path):
        # the winding sweep's cold starts and the warm-started norm sweep,
        # which takes the most Newton steps per solve
        src = str(Path(qvortex.__file__).resolve().parents[1])
        commands = {"table2.csv": ["table2"], "dispersion.csv": ["dispersion", "--points", "7"]}
        rows = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            out = tmp_path / threads
            for name, argv in commands.items():
                subprocess.run(
                    [sys.executable, "-m", "qvortex.cli", *argv, "--out", str(out)],
                    env=env, check=True, timeout=300,
                )
                rows[threads, name] = data_lines(out / name)[1:]
        assert len(rows["1", "table2.csv"]) == 5
        assert len(rows["1", "dispersion.csv"]) == 7 + 2
        for name in commands:
            assert rows["1", name] == rows["2", name]


class TestDispersionCommand:
    def test_monotone_with_reference_rows(self, tmp_path):
        out = tmp_path / "d"
        assert run(
            "dispersion", "--out", str(out),
            "--q0-min", "10", "--q0-max", "1000", "--points", "7",
        ) == 0
        lines = data_lines(out / "dispersion.csv")
        assert lines[0] == "label,q0,omega_sq"
        rows = [line.split(",") for line in lines[1:]]
        sols = [(float(q), float(w)) for lab, q, w in rows if lab == "solution"]
        assert len(sols) == 7
        assert all(a[1] > b[1] for a, b in zip(sols, sols[1:]))
        assert all(w > 0.2 for _, w in sols)
        refs = {lab: w for lab, _, w in rows if lab != "solution"}
        assert refs == {
            "omega_sq_min": "0.20000000000000018",
            "omega_sq_max": "2.2000000000000002",
        }

    def test_endpoints_match_solve(self, tmp_path):
        out = tmp_path / "d"
        assert run("dispersion", "--out", str(out), "--q0-min", "50",
                   "--q0-max", "100", "--points", "2") == 0
        rows = [r.split(",") for r in data_lines(out / "dispersion.csv")[1:]]
        endpoint = float([r for r in rows if r[0] == "solution"][-1][2])
        sol_out = tmp_path / "s"
        assert run("solve", "--q0", "100", "--out", str(sol_out)) == 0
        sol = json.loads((sol_out / "solution.json").read_text())
        assert endpoint == pytest.approx(sol["omega_sq"], abs=1e-6)

    def test_bad_range_rejected(self, tmp_path):
        assert run("dispersion", "--out", str(tmp_path),
                   "--q0-min", "100", "--q0-max", "10") == 2


class TestVerifyCommand:
    def test_default_configuration_passes(self, tmp_path, capsys):
        assert run("verify", "--out", str(tmp_path)) == 0
        printed = capsys.readouterr().out
        for name in ("orthonormality", "gradient_fd", "bounds", "decay",
                     "linear_limit", "oracle_cross"):
            assert f"{name}: PASS" in printed

    def test_unconverged_solves_fail_their_lines(self, tmp_path, capsys):
        # a tolerance no solve can meet leaves both the Q0=100 and the Q0=0.01
        # solve short after five steps (the linear-mode start converges the
        # Q0=0.01 solve in one step at the default tolerance)
        assert run("verify", "--out", str(tmp_path), "--set", "max_iter=5",
                   "--set", "grad_tol=1e-300") == 1
        printed = capsys.readouterr().out
        for name in ("bounds", "decay", "linear_limit", "oracle_cross"):
            assert f"{name}: FAIL" in printed
        (linear,) = [line for line in printed.splitlines() if line.startswith("linear_limit")]
        assert linear.endswith(", converged False)")

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_check_is_below_the_step_rounding(self, tmp_path, capsys, seed):
        # dividing by 2h_i instead of each difference's width reads 3.3e-10 at seed 0
        run("verify", "--out", str(tmp_path), "--seed", str(seed))
        (line,) = [x for x in capsys.readouterr().out.splitlines() if x.startswith("gradient_fd")]
        assert float(line.rsplit(" ", 1)[1].rstrip(")")) < 1e-11

    def test_coarse_grid_fails_orthonormality(self, tmp_path, capsys, monkeypatch):
        # a basis that does not build fails verify as it fails every command
        def failing(*args):
            raise RuntimeError("Gram-Schmidt pivot not positive; quadrature grid too coarse")

        monkeypatch.setattr(qvortex.cli, "build_basis", failing)
        assert run("verify", "--out", str(tmp_path)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error [basis] Gram-Schmidt pivot not positive; quadrature grid too coarse\n"

    @pytest.mark.parametrize("ratio, ok", [(1.5e-4, True), (1.4e-4, False)])
    def test_orthonormality_holds_eps_over_the_squared_pivot_ratio(
        self, tmp_path, capsys, monkeypatch, ratio, ok
    ):
        # a basis that builds can still fail the line: eps/ratio^2 must stay below 1e-8
        build = qvortex.cli.build_basis
        monkeypatch.setattr(
            qvortex.cli, "build_basis", lambda *a: replace(build(*a), pivot_ratio=ratio)
        )
        run("verify", "--out", str(tmp_path))
        line = capsys.readouterr().out.splitlines()[0]
        verdict = "PASS" if ok else "FAIL"
        assert line == f"orthonormality: {verdict} (smallest pivot ratio {ratio:.3e})"

    def test_negative_winding_passes(self, tmp_path):
        assert run("verify", "--out", str(tmp_path), "--n", "-2") == 0

    def test_wide_disk_passes(self, tmp_path):
        # the thin wall lies inside the first node of either solver
        assert run("verify", "--out", str(tmp_path), "--set", "p=1e6") == 0

    def test_high_winding_prints_every_line(self, tmp_path, capsys):
        # the FD oracle's ring bump must stay finite at |n| = 150
        assert run("verify", "--out", str(tmp_path), "--n", "150") == 1
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 7 and err == ""

    @pytest.mark.parametrize("n", ["11", "-12"])
    def test_winding_beyond_ten_passes(self, tmp_path, capsys, n):
        # the linear-limit Bessel zero has no order cap
        assert run("verify", "--out", str(tmp_path), "--n", n, "--set", "p=20") == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" (")[0] for line in lines[:-1]] == [
            f"{name}: PASS" for name in ("orthonormality", "gradient_fd", "bounds", "decay",
                                         "linear_limit", "oracle_cross")
        ]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_winding_past_the_bessel_bound_is_a_config_error(self, tmp_path, capsys, sign):
        # the linear-limit zero is not trusted there, so verify refuses before any work
        n = sign * (qvortex.crosscheck._BESSEL_ORDER_MAX + 1)
        assert run("verify", "--out", str(tmp_path), "--n", str(n)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error [config]: Bessel order {abs(n)} exceeds ")
        assert not any(tmp_path.iterdir())

    def test_oracle_cross_checks_the_configured_winding(self, tmp_path, monkeypatch):
        # the oracle compares with the solve the bounds and decay lines judge
        seen = {"fd": [], "spectral": []}

        def recording(name, fn):
            def wrapped(*args, **kwargs):
                params = next(a for a in args if isinstance(a, ModelParams))
                seen[name].append(params.n)
                return fn(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(qvortex.cli, "fd_minimize",
                            recording("fd", qvortex.cli.fd_minimize))
        monkeypatch.setattr(qvortex.cli, "minimize_on_sphere",
                            recording("spectral", qvortex.cli.minimize_on_sphere))
        assert run("verify", "--out", str(tmp_path), "--n", "3") == 0
        assert seen == {"fd": [3], "spectral": [3, 3]}


class TestOracleCompareCommand:
    def test_agreement_at_benchmark_norm(self, tmp_path):
        out = tmp_path / "oc"
        assert run("oracle-compare", "--out", str(out), "--q0", "100") == 0
        payload = json.loads((out / "oracle_compare.json").read_text())
        assert payload["agree"] is True
        assert payload["delta_omega_sq"] < 0.01
        assert payload["fd_converged"] is True
        assert 0 < payload["fd_iterations"] < 100

    def test_unconverged_oracle_does_not_agree(self, basis, params, solve):
        sol = solve(100.0)
        fd = fd_minimize(params, 100.0, n_fd=2000)
        assert _oracle_agreement(basis, sol, fd)[2]
        assert not _oracle_agreement(basis, sol, replace(fd, converged=False))[2]

    def test_unconverged_spectral_solve_does_not_agree(self, basis, params, solve):
        sol = solve(100.0)
        fd = fd_minimize(params, 100.0, n_fd=2000)
        assert not _oracle_agreement(basis, replace(sol, converged=False), fd)[2]


class TestConfigResolution:
    def test_file_then_set_then_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=2\nbasis_size=30\n# comment\nmax_iter=5000\n")
        out = tmp_path / "o"
        rc = run(
            "solve", "--q0", "10", "--config", str(cfg),
            "--set", "basis_size=40", "--m", "50", "--out", str(out),
        )
        assert rc == 0
        echo = json.loads((out / "solution.json").read_text())["config"]
        assert echo["n"] == 2              # from file
        assert echo["basis_size"] == 50    # flag beats --set beats file
        assert echo["max_iter"] == 5000

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("unknown_key=3\n")
        assert run("solve", "--config", str(cfg), "--out", str(tmp_path)) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_malformed_file_value_names_its_line_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# winding\nn = 2.5\n")
        assert run("solve", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err == f"error [config]: {cfg}:2: n must be an integer, got '2.5'\n"

    def test_malformed_set_rejected(self, tmp_path, capsys):
        assert run("solve", "--set", "grad_tol", "--out", str(tmp_path)) == 2
        assert "key=value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting",
        [
            "n=0",
            "max_iter=0",
            "restarts=-1",
            "rng_seed=-1",
            "grad_tol=0",
            "basis_size=0",
            "max_iter=1e3",
            "n=abc",
        ],
    )
    def test_invalid_value_is_a_config_error(self, tmp_path, capsys, setting):
        assert run("solve", "--set", setting, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error [config]: {setting.split('=')[0]} ")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("setting", ["quad_panels=48", "quad_order=8"])
    def test_grid_keys_are_unknown(self, tmp_path, capsys, setting):
        # the grid follows basis_size; its panels and order are no config keys
        assert run("solve", "--set", setting, "--out", str(tmp_path)) == 2
        key = setting.split("=")[0]
        assert capsys.readouterr().err == f"error [config]: unknown config key {key!r}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--q0", "nan"],
            ["dispersion", "--q0-min", "0"],
            ["dispersion", "--q0-min", "-5"],
            ["dispersion", "--q0-max", "inf"],
            ["oracle-compare", "--q0", "-1"],
            ["oracle-compare", "--n-fd", "10"],
            # the lowest rejected values: one below each flag's minimum
            ["oracle-compare", "--n-fd", "99"],
            ["dispersion", "--points", "1"],
            # 1 and its float successor: the five geometric points repeat values
            ["dispersion", "--q0-min", "1", "--q0-max", "1.0000000000000002", "--points", "5"],
        ],
    )
    def test_invalid_flag_is_a_config_error(self, tmp_path, capsys, argv):
        assert run(*argv, "--out", str(tmp_path)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error [config]: ")
        assert all(flag in err for flag in argv[1::2])
        assert not any(tmp_path.iterdir())

    def test_keys_and_defaults_come_from_their_declarations(self):
        assert list(CONFIG_DEFAULTS) == [
            "lam", "a_pot", "b", "n", "p",
            "basis_size",
            "grad_tol", "max_iter", "restarts", "rng_seed",
            "output_dir",
        ]
        model, solve = ModelParams(), SolveConfig(q0=1.0)
        for name, default in CONFIG_DEFAULTS.items():
            for source in (model, solve):
                if hasattr(source, name):
                    assert getattr(source, name) == default, name

    def test_readme_lists_the_keys_and_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
        (block,) = re.findall(r"```\n(lam=.*?)```", section, re.S)
        pairs = [item.split("=", 1) for item in block.split()]
        assert [key for key, _ in pairs] == list(CONFIG_DEFAULTS)
        assert {key: _coerce(key, raw) for key, raw in pairs} == CONFIG_DEFAULTS

    def test_negative_seed_stops_verify_before_any_check(self, capsys):
        assert run("verify", "--seed", "-1") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error [config]: rng_seed")


class TestParser:
    def test_built_once(self, tmp_path, capsys):
        qvortex.cli._build_parser.cache_clear()
        outputs = []
        for _ in range(2):
            assert run("solve", "--out", str(tmp_path)) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert qvortex.cli._build_parser.cache_info().misses == 1

    @pytest.mark.parametrize("argv, target", [
        (["solve"], "minimize_on_sphere"),
        (["table1"], "sweep_q0"),
        (["table2"], "sweep_n"),
        (["dispersion", "--points", "3"], "theory_bounds"),
        (["verify"], "minimize_on_sphere"),
        (["verify"], "fd_minimize"),
        (["oracle-compare"], "fd_minimize"),
    ], ids=["solve", "table1", "table2", "dispersion", "verify", "verify-oracle",
            "oracle-compare"])
    def test_a_failure_past_the_basis_is_one_solve_line(
        self, tmp_path, capsys, monkeypatch, argv, target
    ):
        # main is the one handler: no exception leaves it, and every step of a
        # command after the basis build is labeled [solve]
        def failing(*args, **kwargs):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(qvortex.cli, target, failing)
        assert run(*argv, "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == "error [solve] float division by zero\n"

    def test_dispatch_reads_the_module_global(self, monkeypatch):
        qvortex.cli._build_parser()  # cached before the patch
        monkeypatch.setattr(
            qvortex.cli, "cmd_oracle_compare", lambda cfg, params, solve, basis, args: 7
        )
        assert run("oracle-compare") == 7

    @pytest.mark.parametrize("argv, sweep", [
        (["table1"], "sweep_q0"),
        (["table2"], "sweep_n"),
        (["dispersion", "--points", "3"], "sweep_q0"),
    ], ids=["table1", "table2", "dispersion"])
    def test_sweeps_read_the_module_global(self, tmp_path, monkeypatch, argv, sweep):
        # the benchmark's probes wrap the sweeps by patching these attributes
        calls = []
        for name in ("sweep_q0", "sweep_n"):
            def wrapped(*args, _name=name, _fn=getattr(qvortex.cli, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(qvortex.cli, name, wrapped)
        assert run(*argv, "--out", str(tmp_path)) == 0
        assert calls == [sweep]


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qvortex import *", namespace)
    assert [name for name in qvortex.__all__ if name not in namespace] == []


def test_every_exported_function_has_a_package_caller():
    # no public helper that only tests reach: each exported function is named,
    # bare or as an attribute, in some module of the package besides __init__
    package = Path(qvortex.__file__).resolve().parent
    referenced = set()
    for module in package.glob("*.py"):
        if module.name != "__init__.py":
            for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
    functions = [name for name in qvortex.__all__ if inspect.isfunction(getattr(qvortex, name))]
    assert "potential" in functions
    assert [name for name in functions if name not in referenced] == []


def test_import_leaves_scipy_unloaded():
    # only the finite-difference oracle needs scipy, and it imports it itself
    src = str(Path(qvortex.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = ("import sys, qvortex.cli; qvortex.cli.bessel_first_zero(3); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True,
        timeout=60,
    )
    assert done.stdout.strip() == "[]"
