import inspect
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import qvortex
from qvortex import ModelParams, SolveConfig, build_grid, fd_minimize
from qvortex.cli import CONFIG_DEFAULTS, _oracle_agreement, main

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

    def test_nonconvergence_gives_nonzero_exit(self, tmp_path, capsys):
        rc = run(
            "solve", "--q0", "100", "--out", str(tmp_path),
            "--set", "max_iter=2", "--set", "grad_tol=1e-14",
        )
        assert rc == 1
        assert "converge" in capsys.readouterr().err


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
        src = str(Path(qvortex.__file__).resolve().parents[1])
        rows = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            out = tmp_path / threads
            subprocess.run(
                [sys.executable, "-m", "qvortex.cli", "table2", "--out", str(out)],
                env=env, check=True, timeout=300,
            )
            lines = data_lines(out / "table2.csv")[1:]
            rows[threads] = [line.split(",") for line in lines]
        assert [row[4] for row in rows["1"]] == [row[4] for row in rows["2"]]
        for one, two in zip(rows["1"], rows["2"]):
            assert abs(float(one[1]) - float(two[1])) <= 1e-9


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

    def test_coarse_grid_fails_orthonormality(self, tmp_path, capsys):
        assert run("verify", "--out", str(tmp_path), "--set", "quad_panels=2") == 1
        assert "orthonormality: FAIL" in capsys.readouterr().out

    def test_tightened_decay_radius_still_passes(self, tmp_path, capsys):
        assert run("verify", "--out", str(tmp_path), "--decay-p0", "18.0") == 0
        assert "decay: PASS" in capsys.readouterr().out

    def test_negative_winding_passes(self, tmp_path):
        assert run("verify", "--out", str(tmp_path), "--n", "-2") == 0


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
            "quad_order=0",
            "quad_panels=0",
            "basis_size=0",
        ],
    )
    def test_invalid_value_is_a_config_error(self, tmp_path, capsys, setting):
        assert run("solve", "--set", setting, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error [config]: ")
        assert setting.split("=")[0] in err
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
            ["verify", "--decay-p0", "30"],
            ["verify", "--n", "11"],
        ],
    )
    def test_invalid_flag_is_a_config_error(self, tmp_path, capsys, argv):
        assert run(*argv, "--out", str(tmp_path)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error [config]: ")
        assert argv[1] in err
        assert not any(tmp_path.iterdir())

    def test_keys_and_defaults_come_from_their_declarations(self):
        assert list(CONFIG_DEFAULTS) == [
            "lam", "a_pot", "b", "n", "p",
            "basis_size", "quad_panels", "quad_order",
            "grad_tol", "max_iter", "restarts", "rng_seed",
            "output_dir",
        ]
        grid = inspect.signature(build_grid).parameters
        assert CONFIG_DEFAULTS["quad_panels"] == grid["panels"].default
        assert CONFIG_DEFAULTS["quad_order"] == grid["order_per_panel"].default
        model, solve = ModelParams(), SolveConfig(q0=1.0)
        for name, default in CONFIG_DEFAULTS.items():
            for source in (model, solve):
                if hasattr(source, name):
                    assert getattr(source, name) == default, name

    def test_negative_seed_stops_verify_before_any_check(self, capsys):
        assert run("verify", "--seed", "-1") == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error [config]: rng_seed")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from qvortex import *", namespace)
    assert [name for name in qvortex.__all__ if name not in namespace] == []


def test_import_leaves_scipy_unloaded():
    # only the finite-difference oracle needs scipy, and it imports it itself
    src = str(Path(qvortex.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    code = "import sys, qvortex.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True,
        timeout=60,
    )
    assert done.stdout.strip() == "[]"
