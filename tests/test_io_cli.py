import json
import os
import subprocess
import sys

import numpy as np
import pytest

import multiggm
from multiggm import DataFormatError, DimensionMismatchError, ingest_csv
from multiggm.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    main,
)
from multiggm.io import read_matrix_csv, write_csv_atomic, write_data_csv


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


class TestIngest:
    def test_headers_and_names(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_lines(a, ["x,y,z", "1,2,3", "4,5,6", "7,8,9"])
        write_lines(b, ["x,y,z", "0,1,0", "1,0,1", "2,2,2"])
        data = ingest_csv([a, b])
        assert data.K == 2 and data.p == 3
        assert data.variable_names == ("x", "y", "z")
        assert data.data[0][1, 2] == 6.0

    def test_standardize_unit_variance(self, tmp_path):
        path = tmp_path / "d.csv"
        rng = np.random.default_rng(1)
        write_data_csv(rng.standard_normal((40, 3)) * [1.0, 5.0, 0.2], path)
        data = ingest_csv([path], standardize=True)
        assert np.all(np.abs(np.var(data.data[0], axis=0, ddof=1) - 1.0) <= 1e-10)

    def test_first_difference_drops_one_row(self, tmp_path):
        path = tmp_path / "d.csv"
        write_data_csv(np.arange(12.0).reshape(6, 2), path)
        data = ingest_csv([path], first_difference=True)
        assert data.data[0].shape == (5, 2)
        assert np.all(data.data[0] == 2.0)

    def test_ragged_row_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_lines(path, ["1,2,3", "4,5"])
        with pytest.raises(DataFormatError, match="ragged row 2"):
            ingest_csv([path])

    def test_non_numeric_cell_reported_with_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_lines(path, ["1,2,3", "4,oops,6"])
        with pytest.raises(DataFormatError, match="row 2, column 2"):
            ingest_csv([path])

    def test_column_mismatch_across_populations(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_lines(a, ["1,2", "3,4"])
        write_lines(b, ["1,2,3", "4,5,6"])
        with pytest.raises(DimensionMismatchError):
            ingest_csv([a, b])

    def test_constant_column_cannot_standardize(self, tmp_path):
        path = tmp_path / "c.csv"
        write_lines(path, ["1,5", "2,5", "3,5"])
        with pytest.raises(DataFormatError, match="column 2"):
            ingest_csv([path], standardize=True)


class TestCsvWriting:
    def test_floats_round_trip_via_17_digits(self, tmp_path):
        values = [1 / 3, 2.0 ** -45, 1e300, -0.1]
        path = tmp_path / "vals.csv"
        write_csv_atomic([values], str(path))
        back = [float(c) for c in path.read_text().strip().split(",")]
        assert back == values

    def test_write_is_atomic_no_temp_left_behind(self, tmp_path):
        path = tmp_path / "out" / "table.csv"
        write_csv_atomic([[1, 2]], str(path))
        assert path.exists()
        assert [f for f in os.listdir(path.parent) if f.endswith(".tmp")] == []


@pytest.fixture()
def diag_data(tmp_path):
    # Sample covariance is exactly diag(0.5, 2): columns orthogonal.
    x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]])
    path = tmp_path / "pop1.csv"
    write_data_csv(x, path)
    return path


class TestCli:
    def test_estimate_unpenalized_diagonal_inverse(self, tmp_path, diag_data):
        out = tmp_path / "out"
        code = main([
            "estimate", "--data", str(diag_data), "--lam", "0", "--rho", "0",
            "--out-dir", str(out), "-q",
        ])
        assert code == EXIT_OK
        est = read_matrix_csv(out / "estimate_k1.csv")
        assert np.max(np.abs(est - np.diag([2.0, 0.5]))) <= 1e-6
        report = json.loads((out / "report.json").read_text())
        assert report["payload"]["converged"]
        assert report["tool_version"]

    def test_report_times_each_phase(self, tmp_path, diag_data):
        data = ["--data", f"{diag_data},{diag_data}"]
        runs = {
            "estimate": (["estimate", *data, "--debias", "--lam", "0.1", "--rho", "0.1"],
                         {"read_s", "solve_s", "inference_s", "write_s"}),
            "test": (["test", *data, "--lam", "0.1", "--rho", "0.1", "--edges", "1,2",
                      "--coeffs", "1,-1"], {"read_s", "solve_s", "inference_s", "write_s"}),
            "tune": (["tune", *data, "--c1-grid", "0.5", "--c2-grid", "0.5"],
                     {"read_s", "tune_s", "write_s"}),
        }
        for name, (argv, phases) in runs.items():
            out = tmp_path / name
            assert main([*argv, "--out-dir", str(out), "-q"]) == EXIT_OK
            timings = json.loads((out / "report.json").read_text())["timings"]
            assert set(timings) == phases | {"wall_seconds", "read_lanes", "write_lanes"}
            assert timings["read_lanes"] >= 1 and timings["write_lanes"] >= 1
            assert all(timings[k] >= 0.0 for k in phases)
            assert sum(timings[k] for k in phases) <= timings["wall_seconds"]

    def test_payload_counts_screening_blocks(self, tmp_path, diag_data):
        # Columns 1 and 2 are correlated, column 3 is orthogonal to both.
        x = np.array([[1.0, 0.8, 0.0], [-1.0, -0.6, 0.0], [0.5, 0.7, 1.0],
                      [-0.5, -0.7, 1.0], [0.3, 0.1, 0.0], [-0.3, -0.6, 0.0]])
        linked = tmp_path / "linked.csv"
        write_data_csv(x, linked)
        for data, blocks in ((diag_data, [2, 1]), (linked, [2, 2])):
            for argv in (["estimate"], ["test", "--edges", "1,2", "--coeffs", "1"]):
                out = tmp_path / f"{data.stem}_{argv[0]}"
                assert main([*argv, "--data", str(data), "--lam", "0.05", "--rho", "0.05",
                             "--out-dir", str(out), "-q"]) == EXIT_OK
                payload = json.loads((out / "report.json").read_text())["payload"]
                assert [payload["blocks"], payload["largest_block"]] == blocks

    def test_identical_files_give_unit_p_values(self, tmp_path, diag_data):
        out = tmp_path / "out"
        code = main([
            "test", "--data", f"{diag_data},{diag_data}", "--c1", "0.4", "--c2", "0.4",
            "--edges", "1,2", "--coeffs", "1,-1", "--out-dir", str(out), "-q",
        ])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["payload"]["tests"][0]["p_value"] == pytest.approx(1.0)

    def test_simulate_matches_library_bit_for_bit(self, tmp_path):
        from multiggm import ExperimentConfig, run_sign_consistency
        from multiggm.graphs import GraphSpec
        from multiggm.io import write_csv_atomic

        out = tmp_path / "sim"
        code = main([
            "simulate", "consistency", "--graph", "chain", "--p", "8",
            "--n", "120,150", "--B", "3", "--seed", "7",
            "--penalty-rule", "fixed", "--c1", "1.0", "--c2", "3.0",
            "--out-dir", str(out), "-q",
        ])
        assert code == EXIT_OK
        config = ExperimentConfig(
            graph=GraphSpec(kind="chain", chain_rho=(0.2, 0.35)),
            dims=(8,),
            sample_sizes=(120, 150),
            replications=3,
            base_seed=7,
            penalty_rule="fixed",
            fixed_constants=(1.0, 3.0),
        )
        expected = tmp_path / "expected.csv"
        write_csv_atomic(run_sign_consistency(config).csv_rows(), str(expected))
        assert (out / "consistency.csv").read_bytes() == expected.read_bytes()

    def test_round_trip_dataset_reproduces_estimate(self, tmp_path):
        from multiggm import draw_mvn_dataset, two_population_chain_spec, sample_covariance
        from multiggm import PenaltyPair, solve_ggl

        truth = two_population_chain_spec().build(6)
        data = draw_mvn_dataset(truth, (80, 80), seed=5)
        paths = []
        for k, x in enumerate(data.data):
            path = tmp_path / f"pop{k}.csv"
            write_data_csv(x, path)
            paths.append(str(path))
        reloaded = ingest_csv(paths)
        for a, b in zip(data.data, reloaded.data):
            assert np.array_equal(a, b)
        covs_a = sample_covariance(data)
        covs_b = sample_covariance(reloaded)
        rep_a = solve_ggl(covs_a, PenaltyPair(0.05, 0.1))
        rep_b = solve_ggl(covs_b, PenaltyPair(0.05, 0.1))
        for m1, m2 in zip(rep_a.estimate.matrices, rep_b.estimate.matrices):
            assert np.array_equal(m1, m2)

    def test_tune_writes_score_table(self, tmp_path):
        rng = np.random.default_rng(3)
        paths = []
        for k in range(2):
            path = tmp_path / f"p{k}.csv"
            write_data_csv(rng.standard_normal((60, 4)), path)
            paths.append(str(path))
        out = tmp_path / "out"
        code = main([
            "tune", "--data", ",".join(paths),
            "--c1-grid", "0.5,1.0", "--c2-grid", "0.5,1.0",
            "--out-dir", str(out), "-q",
        ])
        assert code == EXIT_OK
        lines = (out / "score_table.csv").read_text().strip().splitlines()
        assert lines[0] == "c1,c2,lambda,rho,ebic,edges_k1,edges_k2,converged"
        assert len(lines) == 5
        report = json.loads((out / "report.json").read_text())
        assert "best_constants" in report["payload"]

    def test_diagnose_chain_pair(self, tmp_path):
        from multiggm import chain_precision
        from multiggm.io import write_matrix_csv

        paths = []
        for k, rho in enumerate((0.2, 0.35)):
            path = tmp_path / f"om{k}.csv"
            write_matrix_csv(chain_precision(5, rho), str(path))
            paths.append(str(path))
        out = tmp_path / "out"
        code = main([
            "diagnose", "--precision", ",".join(paths), "--lam", "0.1",
            "--rho", "0.1", "--sample-sizes", "600,600",
            "--out-dir", str(out), "-q",
        ])
        assert code == EXIT_OK
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["assumptions_hold"]["irrepresentability"]
        assert diag["populations"][0]["max_degree"] == 2

    def test_config_file_with_flag_override(self, tmp_path, diag_data):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"out_dir": str(tmp_path / "from_file"), "lam": 0.0, "rho": 0.0}))
        out = tmp_path / "flag_wins"
        code = main([
            "estimate", "--config", str(config), "--data", str(diag_data),
            "--out-dir", str(out), "-q",
        ])
        assert code == EXIT_OK
        assert (out / "report.json").exists()
        assert not (tmp_path / "from_file").exists()

    def test_report_echo_reruns_identically(self, tmp_path, diag_data):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        argv = ["estimate", "--data", str(diag_data), "--c1", "0.5", "--c2", "1.0", "-q"]
        assert main(argv + ["--out-dir", str(out1)]) == EXIT_OK
        report = json.loads((out1 / "report.json").read_text())
        params = report["config"]["params"]
        assert params["c1"] == 0.5 and params["c2"] == 1.0
        assert main(argv + ["--out-dir", str(out2)]) == EXIT_OK
        assert (out1 / "estimate_k1.csv").read_bytes() == (out2 / "estimate_k1.csv").read_bytes()

    def test_exit_codes(self, tmp_path):
        # config error: missing file
        assert main(["estimate", "--data", "nope.csv", "--lam", "0.1", "-q",
                     "--out-dir", str(tmp_path / "a")]) == EXIT_CONFIG
        # config error: no penalty given
        ok = tmp_path / "ok.csv"
        write_lines(ok, ["1,0", "0,1", "1,1"])
        assert main(["estimate", "--data", str(ok), "-q",
                     "--out-dir", str(tmp_path / "b")]) == EXIT_CONFIG
        # data error: non-numeric cell
        bad = tmp_path / "bad.csv"
        write_lines(bad, ["1,2", "x,4"])
        assert main(["estimate", "--data", str(bad), "--lam", "0.1", "-q",
                     "--out-dir", str(tmp_path / "c")]) == EXIT_DATA
        # non-convergence: unpenalized fit on singular covariance (n < p)
        sing = tmp_path / "sing.csv"
        write_lines(sing, ["1,1,0.5", "-1,0.5,1"])
        assert main(["estimate", "--data", str(sing), "--lam", "0", "--rho", "0", "-q",
                     "--out-dir", str(tmp_path / "d")]) == EXIT_NONCONVERGENCE

    def test_nonconvergence_warns_on_stderr(self, tmp_path, capsys):
        # Unpenalized fit on a singular covariance (n < p) cannot converge.
        sing = tmp_path / "sing.csv"
        write_lines(sing, ["1,1,0.5", "-1,0.5,1"])
        runs = {"estimate": [], "test": ["--edges", "1,2", "--coeffs", "1"]}
        for name, extra in runs.items():
            out = tmp_path / name
            code = main([name, "--data", str(sing), "--lam", "0", "--rho", "0", *extra,
                         "-q", "--out-dir", str(out)])
            assert code == EXIT_NONCONVERGENCE
            err = capsys.readouterr().err
            assert err.startswith("warning: the solve did not converge (10000 iterations")
            assert json.loads((out / "report.json").read_text())["payload"]["converged"] is False

    def test_tune_payload_counts_iterations(self, tmp_path):
        path = tmp_path / "p.csv"
        write_data_csv(np.random.default_rng(3).standard_normal((60, 4)), path)
        out = tmp_path / "out"
        assert main(["tune", "--data", f"{path},{path}", "--c1-grid", "0.1,0.2",
                     "--c2-grid", "0.1", "--out-dir", str(out), "-q"]) == EXIT_OK
        payload = json.loads((out / "report.json").read_text())["payload"]
        assert payload["cells"] == payload["converged_cells"] == 2
        assert isinstance(payload["iterations"], int) and payload["iterations"] > 0
        assert payload["grid_lanes"] == 1  # one C2 column

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "multiggm" in out and "report schema" in out


def test_cli_loads_scipy_only_for_test_and_diagnose(tmp_path):
    # One fresh interpreter runs the commands in turn.  Importing the package,
    # estimate, tune and simulate load numpy alone, also when they run after
    # each other; test loads scipy.special for its p-values and diagnose
    # loads scipy.linalg.  pandas and scipy.sparse are never loaded.
    from multiggm.graphs import chain_precision
    from multiggm.io import write_matrix_csv

    rng = np.random.default_rng(2)
    paths = []
    for k in range(2):
        paths.append(str(tmp_path / f"pop{k}.csv"))
        write_data_csv(rng.standard_normal((40, 5)), paths[-1], [f"x{j}" for j in range(5)])
    precision = str(tmp_path / "precision.csv")
    write_matrix_csv(chain_precision(5, 0.3), precision)
    data = ["--data", ",".join(paths)]
    steps = [
        ["estimate", *data, "--c1", "0.5", "--c2", "1.0", "--debias"],
        ["tune", *data, "--c1-grid", "0.5,1", "--c2-grid", "1,2"],
        ["simulate", "normality", "--p", "6", "--n", "100", "--B", "2"],
        ["test", *data, "--c1", "0.5", "--c2", "1.0", "--edges", "1,2", "--coeffs", "1,-1"],
        ["diagnose", "--precision", f"{precision},{precision}", "--sample-sizes", "40,40"],
    ]
    code = (
        "import json, sys\n"
        "watched = ('pandas', 'scipy.sparse', 'scipy.special', 'scipy.linalg')\n"
        "def loaded():\n"
        "    return [m for m in watched if m in sys.modules]\n"
        "import multiggm\n"
        "seen = [[0, loaded()]]\n"
        "from multiggm import cli\n"
        "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
        "    out = ['--out-dir', f'{sys.argv[2]}/out{i}', '-q']\n"
        "    seen.append([cli.main(argv + out), loaded()])\n"
        "print(json.dumps(seen))\n"
    )
    package_root = os.path.dirname(os.path.dirname(multiggm.__file__))
    result = subprocess.run(
        [sys.executable, "-c", code, json.dumps(steps), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=package_root),
    )
    assert result.returncode == 0, result.stderr
    after_import, estimate, tune, simulate, test, diagnose = json.loads(result.stdout)
    for exit_code, modules in (after_import, estimate, tune, simulate):
        assert exit_code == EXIT_OK and modules == []
    assert test == [EXIT_OK, ["scipy.special"]]
    assert diagnose[0] == EXIT_OK and "scipy.linalg" in diagnose[1]
    assert "pandas" not in diagnose[1] and "scipy.sparse" not in diagnose[1]
