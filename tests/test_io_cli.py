import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import multiggm
from multiggm import _lanes, selection, solver
from multiggm import DataFormatError, DimensionMismatchError, ingest_csv
from multiggm.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    main,
)
from multiggm.io import _read_csv, read_matrix_csv, write_csv_atomic, write_data_csv


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


class TestIngest:
    def test_headers_and_names(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_lines(a, ["x,y,z", "1,2,3", "4,5,6", "7,8,9"])
        write_lines(b, ["x,y,z", "0,1,0", "1,0,1", "2,2,2"])
        data = ingest_csv([a, b])
        assert [x.shape for x in data.data] == [(3, 3), (3, 3)]
        assert _read_csv(a)[1] == ["x", "y", "z"]
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
        header, row = (out / "tests.csv").read_text().splitlines()
        assert float(row.split(",")[header.split(",").index("p_value")]) == pytest.approx(1.0)

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

    def test_diagnose_payload_is_the_assumption_checks(self, tmp_path):
        from multiggm import chain_precision
        from multiggm.io import write_matrix_csv

        paths = []
        for k, rho in enumerate((0.2, 0.35)):
            path = tmp_path / f"om{k}.csv"
            write_matrix_csv(chain_precision(5, rho), str(path))
            paths.append(str(path))
        out = tmp_path / "out"
        assert main(["diagnose", "--precision", ",".join(paths), "--sample-sizes", "600,300",
                     "--out-dir", str(out), "-q"]) == EXIT_OK
        # The default penalties (0.1, 0.1) are too small for the between-group
        # condition; the table itself is in diagnostics.json only.
        payload = json.loads((out / "report.json").read_text())["payload"]
        assert payload == {
            "assumptions_hold": {
                "irrepresentability": True,
                "between_group": False,
                "bounded_eigenvalues": True,
                "sample_size_ratio": True,
            }
        }
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["assumptions_hold"] == payload["assumptions_hold"]
        assert diag["sample_size_ratios"] == [0.5, 1.0]

    @pytest.mark.parametrize("sizes", ["0,600", "-5,600"])
    def test_diagnose_nonpositive_sample_size_is_a_config_error(self, tmp_path, capsys, sizes):
        from multiggm import chain_precision
        from multiggm.io import write_matrix_csv

        path = tmp_path / "om.csv"
        write_matrix_csv(chain_precision(5, 0.2), str(path))
        out = tmp_path / "out"
        assert main(["diagnose", "--precision", f"{path},{path}", f"--sample-sizes={sizes}",
                     "--out-dir", str(out), "-q"]) == EXIT_CONFIG
        assert "configuration error: --sample-sizes must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--gamma", "-1"], ["--c1-grid", "0"], ["--c2-grid", "1,0.5"], ["--c1-grid", ","],
        ["--c1-grid", "0.5,nan"], ["--c1-grid", "0.5,inf"], ["--c2-grid", "nan"],
        ["--gamma", "nan"], ["--gamma", "inf"],
    ])
    def test_tune_bad_grid_is_a_config_error(self, tmp_path, diag_data, capsys, flags):
        out = tmp_path / "out"
        assert main(["tune", "--data", str(diag_data), *flags,
                     "--out-dir", str(out), "-q"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not out.exists()

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
            assert err.startswith("warning: the solve did not converge (0 iterations")
            assert json.loads((out / "report.json").read_text())["payload"]["converged"] is False

    def test_tune_payload_counts_iterations(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_lanes, "usable_cpus", lambda: 1)
        path = tmp_path / "p.csv"
        write_data_csv(np.random.default_rng(3).standard_normal((60, 4)), path)
        out = tmp_path / "out"
        assert main(["tune", "--data", f"{path},{path}", "--c1-grid", "0.1,0.2",
                     "--c2-grid", "0.1", "--out-dir", str(out), "-q"]) == EXIT_OK
        payload = json.loads((out / "report.json").read_text())["payload"]
        assert payload["cells"] == payload["converged_cells"] == 2
        assert isinstance(payload["iterations"], int) and payload["iterations"] > 0
        assert payload["grid_lanes"] == 1  # one CPU

    @pytest.mark.parametrize("best, on_edge", [((1.0, 1.0), False), ((1.0, 2.0), True)])
    def test_tune_records_a_choice_on_the_grid_edge(
        self, tmp_path, monkeypatch, capsys, best, on_edge
    ):
        # A score whose minimum is the chosen cell of the 3x3 grid, read off
        # the penalty of the solve just before it: a cell's solve and score
        # run one after the other in the same lane.
        scale, solve, last = selection.penalty_scale(4, 60), selection.solve_ggl, {}

        def recording(covs, penalty, opts):
            last["constants"] = (penalty.lam / scale, penalty.rho / scale)
            return solve(covs, penalty, opts)

        def bowl(estimate, covs, gamma):
            value = sum((c - b) ** 2 for c, b in zip(last["constants"], best))
            return selection.EbicScore(value, (0,) * covs.K)

        monkeypatch.setattr(selection, "solve_ggl", recording)
        monkeypatch.setattr(selection, "ebic", bowl)
        path = tmp_path / "p.csv"
        write_data_csv(np.random.default_rng(3).standard_normal((60, 4)), path)
        out = tmp_path / "out"
        assert main(["tune", "--data", f"{path},{path}", "--c1-grid", "0.5,1,2",
                     "--c2-grid", "0.5,1,2", "--out-dir", str(out), "-q"]) == EXIT_OK
        payload = json.loads((out / "report.json").read_text())["payload"]
        assert payload["best_constants"] == list(best)
        assert payload["best_on_grid_edge"] is on_edge
        err = capsys.readouterr().err
        assert err.count("warning") == int(on_edge)
        if on_edge:
            assert "(C1, C2) = (1, 2) is on the edge of the grid" in err

    def test_payloads_count_the_certificate_calls(self, tmp_path, monkeypatch):
        calls = []
        certify = solver._stationarity_violation

        def counting(*args):
            calls.append(1)
            return certify(*args)

        monkeypatch.setattr(solver, "_stationarity_violation", counting)
        # One lane, so that every solve runs in this process.
        monkeypatch.setattr(_lanes, "usable_cpus", lambda: 1)
        rng = np.random.default_rng(4)
        paths = [tmp_path / f"p{k}.csv" for k in range(2)]
        for path in paths:
            write_data_csv(rng.standard_normal((60, 5)), path)
        data = ["--data", ",".join(map(str, paths)), "-q"]
        runs = {
            "estimate": ["--lam", "0.05", "--rho", "0.05"],
            "test": ["--lam", "0.05", "--rho", "0.05", "--edges", "1,2", "--coeffs", "1,-1"],
            "tune": ["--c1-grid", "0.1,0.2", "--c2-grid", "0.1"],
        }
        for command, extra in runs.items():
            calls.clear()
            out = tmp_path / command
            assert main([command, *data, *extra, "--out-dir", str(out)]) == EXIT_OK
            payload = json.loads((out / "report.json").read_text())["payload"]
            assert payload["certificate_calls"] == len(calls) >= 1
            assert isinstance(payload["iterations"], int) and payload["iterations"] > 0
            assert isinstance(payload["acceleration_restarts"], int)
            assert payload["acceleration_restarts"] >= 0

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "multiggm" in out and "report schema" in out


@pytest.fixture()
def chain_pair(tmp_path):
    rng = np.random.default_rng(11)
    paths = []
    for k, m in enumerate(multiggm.two_population_chain_spec().build(6).matrices):
        x = rng.multivariate_normal(np.zeros(6), np.linalg.inv(m), size=90 + 30 * k)
        paths.append(tmp_path / f"pop{k}.csv")
        write_data_csv(x, paths[-1])
    return ",".join(map(str, paths))


class TestTestCommand:
    def test_rows_across_table_blocks(self, tmp_path, chain_pair):
        # io.ColumnTable converts 4,096 rows at a time; 400 copies of the 21
        # pairs (8,400 rows) cross two block boundaries.  Each row must be,
        # byte for byte, the row of its pair in the one-copy run.
        pairs = [(i, j) for i in range(6) for j in range(i, 6)][::-1]
        edges = ";".join(f"{i + 1},{j + 1}" for i, j in pairs)
        lines = {}
        for copies in (1, 400):
            out = tmp_path / f"out{copies}"
            assert main(["test", "--data", chain_pair, "--lam", "0.05", "--rho", "0.1",
                         "--edges", ";".join([edges] * copies), "--coeffs", "2,0.5",
                         "--out-dir", str(out), "-q"]) == EXIT_OK
            lines[copies] = (out / "tests.csv").read_bytes().splitlines()
        assert len(lines[400]) == 1 + 400 * len(pairs) > 1 + 2 * 4096
        assert lines[400][0] == lines[1][0]
        for m, line in enumerate(lines[400][1:]):
            assert line == lines[1][1 + m % len(pairs)]

    def test_many_edges_match_a_per_edge_oracle(self, tmp_path, chain_pair):
        from oracles import scalar_combination

        pairs = [(i, j) for i in range(6) for j in range(i, 6)][::-1]
        edges = ";".join(f"{i + 1},{j + 1}" for i, j in pairs)
        out = tmp_path / "out"
        assert main(["test", "--data", chain_pair, "--lam", "0.05", "--rho", "0.1",
                     "--edges", edges, "--coeffs", "2,0.5", "--alpha", "0.1",
                     "--ci-level", "0.9", "--out-dir", str(out), "-q"]) == EXIT_OK

        covs = multiggm.sample_covariance(ingest_csv(chain_pair.split(",")))
        solve = multiggm.solve_ggl(covs, multiggm.PenaltyPair(0.05, 0.1))
        estimate = solve.estimate
        deb = multiggm.debias(estimate, covs)
        tau, ci_tau = multiggm.upper_quantile(0.1), multiggm.upper_quantile(1.0 - 0.9)
        rows = [["i", "j", "estimate", "std_error", "z", "p_value", "reject",
                 "lower_k1", "upper_k1", "lower_k2", "upper_k2"]]
        for i, j in pairs:
            point, se = scalar_combination(deb.matrices, estimate.matrices,
                                           covs.sample_sizes, (2.0, 0.5), i, j)
            z = point / se
            row = [i + 1, j + 1, point, se, z, math.erfc(abs(z) * math.sqrt(0.5)),
                   int(abs(z) > tau)]
            for unit in np.eye(2):
                center, unit_se = scalar_combination(deb.matrices, estimate.matrices,
                                                     covs.sample_sizes, unit, i, j)
                row += [center - ci_tau * unit_se, center + ci_tau * unit_se]
            rows.append(row)
        write_csv_atomic(rows, str(tmp_path / "expected.csv"))
        assert (out / "tests.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
        assert json.loads((out / "report.json").read_text())["payload"] == {
            "penalty": {"lam": 0.05, "rho": 0.1},
            "converged": True,
            "iterations": solve.iterations,
            "certificate_calls": solve.certificate_calls,
            "acceleration_restarts": solve.acceleration_restarts,
            "blocks": len(solve.block_sizes),
            "largest_block": max(solve.block_sizes),
            "tested": 21,
            "rejected": sum(row[6] for row in rows[1:]),
        }

    def test_flag_levels_are_checked_before_the_solve(
        self, tmp_path, chain_pair, capsys, monkeypatch
    ):
        from multiggm import cli

        monkeypatch.setattr(cli, "solve_ggl", None)
        base = ["test", "--data", chain_pair, "--c1", "0.5", "--c2", "1.0", "--edges", "1,2",
                "--coeffs", "1,-1", "-q"]
        for flag, value in (("--alpha", "0"), ("--alpha", "1"), ("--ci-level", "1.5"),
                            ("--ci-level", "nan")):
            assert main([*base, flag, value, "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert f"configuration error: {flag} must lie strictly in (0, 1)" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value, edge", [
        ("--alpha", "1e-16", 0), ("--ci-level", "1e-300", 0),
        ("--ci-level", "0.9999999999999999", 1),
    ])
    def test_levels_without_a_finite_quantile_exit_1_before_the_solve(
        self, tmp_path, chain_pair, capsys, monkeypatch, flag, value, edge
    ):
        # Inside (0, 1), but 1 - alpha/2 or 1 - level rounds to 1.
        from multiggm import cli

        monkeypatch.setattr(cli, "solve_ggl", lambda *a: pytest.fail("solved"))
        out = tmp_path / "out"
        assert main(["test", "--data", chain_pair, "--c1", "0.5", "--c2", "1.0", "--edges", "1,2",
                     "--coeffs", "1,-1", flag, value, "--out-dir", str(out), "-q"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (f"configuration error: {flag} is too close to {edge} in double "
                       f"precision, got {float(value)}\n")
        assert not out.exists()

    def test_views_run_once_per_command(self, tmp_path, chain_pair, monkeypatch):
        from multiggm import cli

        calls = {"test_linear_combo": 0, "confidence_interval": 0}

        def counted(name):
            view = getattr(cli, name)

            def counting(*args):
                calls[name] += 1
                return view(*args)

            return counting

        for name in calls:
            monkeypatch.setattr(cli, name, counted(name))
        assert main(["test", "--data", chain_pair, "--c1", "0.5", "--c2", "1.0",
                     "--edges", "1,2;2,3;4,6;5,5", "--coeffs", "1,-1",
                     "--out-dir", str(tmp_path / "out"), "-q"]) == EXIT_OK
        assert calls == {"test_linear_combo": 1, "confidence_interval": 2}


def test_benchmark_wrap_points_exist():
    # The traced benchmark wraps package functions by module attribute; a
    # renamed call site would only fail there.  Run bench/tracing.py from its
    # source, so that nothing is written next to it.
    import runpy

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    tracing = runpy.run_path(os.path.join(root, "bench", "tracing.py"))
    targets = tracing["package_targets"]()
    assert targets
    for module, attr, _, _ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_benchmark_workloads_build(tmp_path):
    # The benchmark builds its workloads from package names (ExperimentConfig
    # fields, SolverOptions().tol_abs, ...); a removed one would only fail
    # there.  Build each workload at its tiny size without running it.
    import runpy

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    workloads = runpy.run_path(os.path.join(root, "bench", "workloads.py"))["WORKLOADS"]
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = [w["name"] for w in json.load(fh)["workloads"]]
    assert sorted(workloads) == sorted(declared)
    for name, workload in workloads.items():
        assert workload(1, True, str(tmp_path / name)).name == name


def _surface_trees():
    """``(path, tree, in_package)`` for ``src/multiggm/*.py`` without
    ``__init__.py``, then ``bench/*.py`` and ``demos/*.py``: the code whose
    uses count as callers."""
    import ast
    import glob

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    package = os.path.join(root, "src", "multiggm")
    paths = [p for p in sorted(glob.glob(os.path.join(package, "*.py")))
             if os.path.basename(p) != "__init__.py"]
    paths += sorted(glob.glob(os.path.join(root, "bench", "*.py")))
    paths += sorted(glob.glob(os.path.join(root, "demos", "*.py")))
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            yield path, ast.parse(fh.read()), path.startswith(package)


def test_every_public_name_has_a_caller():
    # A public name that only tests call is surface nobody runs: each
    # exported name and each public top-level function or class must be
    # used by the package outside its own definition and __init__.py, or
    # by the benchmark or a demo.  A use is a name, an attribute or a
    # `from ... import`; a docstring mention is not.
    import ast
    import inspect

    public, used = set(), set()
    for _, tree, in_package in _surface_trees():
        for stmt in tree.body:
            defines = getattr(stmt, "name", None)
            if in_package and isinstance(
                stmt, (ast.FunctionDef, ast.ClassDef)
            ) and not defines.startswith("_"):
                public.add(defines)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                used.update(name for name in names if name != defines)
    public.update(name for name in multiggm.__all__
                  if not inspect.ismodule(getattr(multiggm, name)))
    unused = sorted(public - used)
    assert not unused, f"public names with no caller: {unused}"


# Classes whose fields are read through vars(): to_jsonable() writes them
# whole into report.json and diagnostics.json.
_READ_BY_VARS = {"AnalysisReport", "DiagnosticsReport", "PopulationDiagnostics"}
# Members that the standard library calls: argparse calls error().
_CALLED_BY_LIBRARY = {"_Parser.error"}


def test_every_member_is_read():
    # A field, property or method that nothing reads is an echo or a value
    # only tests look at.  Each member of each package class must be read
    # as an attribute (`x.name`, not assigned) in the package, the
    # benchmark or a demo.  The match is by name, so a member shares the
    # reads of any other of that name.
    import ast

    members, read = set(), set()
    for _, tree, in_package in _surface_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            if in_package and isinstance(node, ast.ClassDef) and node.name not in _READ_BY_VARS:
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        name = stmt.target.id
                    elif isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("__"):
                        name = stmt.name
                    else:
                        continue
                    members.add(f"{node.name}.{name}")
    unread = sorted(m for m in members - _CALLED_BY_LIBRARY if m.split(".")[1] not in read)
    assert not unread, f"members nothing reads: {unread}"


def test_no_unused_imports_in_the_package():
    # No linter is a dependency, so a deletion can leave an import behind.  Every
    # name a module of the package (other than __init__.py, which
    # re-exports) imports must be used in it as a name.
    import ast

    unused = []
    for path, tree, in_package in _surface_trees():
        if not in_package:
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{os.path.basename(path)}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused, f"unused imports: {sorted(unused)}"


def test_settings_checked_at_construction_raise_config_errors():
    # Who chose the value decides the class: the fields of a settings
    # object are the caller's choice, so every raise inside a
    # __post_init__ raises ConfigError.
    import ast

    wrong = []
    for path, tree, in_package in _surface_trees():
        if not in_package:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
                wrong += [
                    f"{os.path.basename(path)}:{r.lineno}"
                    for r in ast.walk(node)
                    if isinstance(r, ast.Raise) and not (
                        isinstance(r.exc, ast.Call)
                        and isinstance(r.exc.func, ast.Name)
                        and r.exc.func.id == "ConfigError"
                    )
                ]
    assert not wrong, f"raises other than ConfigError in __post_init__: {wrong}"


def test_cli_translates_no_library_error_outside_main():
    # A library check raises the class its caller's exit code needs, so the
    # CLI's commands catch no data or definiteness error to re-raise it;
    # only main maps the classes onto exit codes.
    import ast

    data_classes = {"DataFormatError", "DimensionMismatchError", "NotPositiveDefiniteError"}
    caught = []
    for path, tree, _ in _surface_trees():
        if os.path.basename(path) != "cli.py":
            continue
        for stmt in tree.body:
            if getattr(stmt, "name", None) == "main":
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    named = {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
                    caught += [f"line {node.lineno}: {name}"
                               for name in sorted(named & data_classes)]
    assert not caught, f"cli.py catches library errors outside main: {caught}"


def test_commands_raise_nothing_themselves():
    # A command checks a flag by calling the library's rule with the flag's
    # name, or a parsing helper; a raise in a command would be a second copy
    # of a rule the library states.
    import ast

    from multiggm import cli

    commands = {function.__name__ for function in cli.COMMANDS.values()}
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    raising = sorted(
        stmt.name for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef) and stmt.name in commands
        and any(isinstance(node, ast.Raise) for node in ast.walk(stmt))
    )
    assert not raising, f"commands that raise: {raising}"


def test_cli_runs_every_command_without_scipy(tmp_path):
    # One fresh interpreter runs every command in turn, after the import.
    # The package runs on numpy alone: no scipy module and no pandas is
    # loaded after the import or after any command.
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
        ["simulate", "coverage", "--p", "6", "--n", "100", "--B", "2",
         "--penalty-rule", "fixed"],
        ["test", *data, "--c1", "0.5", "--c2", "1.0", "--edges", "1,2", "--coeffs", "1,-1"],
        ["diagnose", "--precision", f"{precision},{precision}", "--sample-sizes", "40,40"],
    ]
    code = (
        "import json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m in ('scipy', 'pandas') or m.startswith('scipy.'))\n"
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
    seen = json.loads(result.stdout)
    assert seen == [[EXIT_OK, []]] * (len(steps) + 1)
