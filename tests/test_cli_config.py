"""The CLI's one config path: argparse defaults, config-file values, flags."""

import json

import numpy as np
import pytest

from multiggm import ExperimentConfig, run_tpfp, two_population_chain_spec
from multiggm.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from multiggm.io import write_csv_atomic, write_data_csv


def run(argv, out):
    return main([*argv, "--out-dir", str(out), "-q"])


def report_of(out):
    return json.loads((out / "report.json").read_text())


def write_config(path, values):
    path.write_text(json.dumps(values))
    return str(path)


@pytest.fixture()
def pair_data(tmp_path):
    truth = two_population_chain_spec().build(6)
    rng = np.random.default_rng(8)
    paths = []
    for k, m in enumerate(truth.matrices):
        x = rng.multivariate_normal(np.zeros(6), np.linalg.inv(m), size=120)
        path = tmp_path / f"pop{k}.csv"
        write_data_csv(x, path)
        paths.append(str(path))
    return ",".join(paths)


TPFP_ARGV = ["simulate", "tpfp", "--p", "8", "--n", "100", "--penalty-rule", "fixed"]


def tpfp_expected(tmp_path):
    config = ExperimentConfig(
        graph=two_population_chain_spec(),
        dims=(8,),
        sample_sizes=(100,),
        replications=2,
        base_seed=0,
        penalty_rule="fixed",
        fixed_constants=(1.0, 0.0),
    )
    path = tmp_path / "expected.csv"
    write_csv_atomic(run_tpfp(config).csv_rows(), str(path))
    return path.read_bytes()


class TestZeroValuesKept:
    def test_flags(self, tmp_path):
        out = tmp_path / "out"
        assert run(TPFP_ARGV + ["--B", "2", "--c2", "0"], out) == EXIT_OK
        params = report_of(out)["config"]["params"]
        assert params["B"] == 2 and params["c2"] == 0.0
        csv = (out / "tpfp.csv").read_bytes()
        assert csv == tpfp_expected(tmp_path)
        assert csv.decode().splitlines()[1] == "chain,8,100,2,6.25,2.5,0"

    def test_config_file(self, tmp_path):
        out = tmp_path / "out"
        config = write_config(tmp_path / "c.json", {"B": 2, "c2": 0.0})
        assert run(TPFP_ARGV + ["--config", config], out) == EXIT_OK
        assert (out / "tpfp.csv").read_bytes() == tpfp_expected(tmp_path)

    def test_flags_override_file(self, tmp_path):
        out = tmp_path / "out"
        config = write_config(tmp_path / "c.json", {"B": 5, "c2": 0.0})
        assert run(TPFP_ARGV + ["--config", config, "--B", "2"], out) == EXIT_OK
        assert (out / "tpfp.csv").read_bytes() == tpfp_expected(tmp_path)


class TestConfigFileChecks:
    @pytest.mark.parametrize("key", ["lamda", "max_iter", "command"])
    def test_unknown_key_exits_1_and_is_named(self, tmp_path, pair_data, capsys, key):
        config = write_config(tmp_path / "c.json", {key: 0.1, "lam": 0.1, "rho": 0.1})
        code = run(["estimate", "--data", pair_data, "--config", config], tmp_path / "out")
        assert code == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_key_of_another_subcommand_is_unknown(self, tmp_path, pair_data):
        config = write_config(tmp_path / "c.json", {"c1": 0.5, "c2": 1.0, "c1_grid": "1,2"})
        code = run(["estimate", "--data", pair_data, "--config", config], tmp_path / "out")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("values", [
        {"B": "two"},
        {"B": 2.5},
        {"graph": "ring"},
        {"retune_per_replication": "yes"},
        {"c1": True},
    ])
    def test_bad_values_exit_1(self, tmp_path, values):
        config = write_config(tmp_path / "c.json", values)
        assert run(TPFP_ARGV + ["--config", config], tmp_path / "out") == EXIT_CONFIG

    def test_file_values_are_typed_like_flags(self, tmp_path, pair_data):
        out = tmp_path / "out"
        config = write_config(tmp_path / "c.json", {"lam": 0, "rho": "0.1", "data": pair_data})
        assert run(["estimate", "--config", config], out) == EXIT_OK
        params = report_of(out)["config"]["params"]
        assert params["lam"] == 0.0 and params["rho"] == 0.1

    def test_zero_replications_exit_1(self, tmp_path, capsys):
        assert run(TPFP_ARGV + ["--B", "0"], tmp_path / "out") == EXIT_CONFIG
        assert "configuration error: need at least one replication" in capsys.readouterr().err

    def test_not_a_json_object(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text("[1, 2]")
        assert run(TPFP_ARGV + ["--config", str(config)], tmp_path / "out") == EXIT_CONFIG


class TestReportReruns:
    @pytest.mark.parametrize("argv, outputs", [
        (["estimate", "--c1", "0.5", "--c2", "1.0", "--debias", "--standardize"],
         ["estimate_k1.csv", "estimate_k2.csv", "debiased_k1.csv", "debiased_k2.csv"]),
        (["test", "--lam", "0.05", "--rho", "0.1", "--edges", "1,2;2,3;1,4",
          "--coeffs", "1,-1", "--alpha", "0.1", "--ci-level", "0.9"],
         ["tests.csv"]),
        (["tune", "--c1-grid", "0.5,1.0", "--c2-grid", "1.0,2.0", "--center"],
         ["score_table.csv"]),
    ])
    def test_config_from_report_gives_identical_csvs(self, tmp_path, pair_data, argv, outputs):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run(argv + ["--data", pair_data], first) == EXIT_OK
        params = dict(report_of(first)["config"]["params"], out_dir=str(second))
        config = write_config(tmp_path / "rerun.json", params)
        assert main([argv[0], "--config", config]) == EXIT_OK
        for name in outputs:
            assert (first / name).read_bytes() == (second / name).read_bytes()
        assert report_of(second)["config"]["params"] == params

    def test_simulate_rerun(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        argv = ["simulate", "normality", "--p", "6", "--n", "100", "--B", "2",
                "--seed", "4", "--edges", "1,3", "--penalty-rule", "fixed"]
        assert run(argv, first) == EXIT_OK
        params = dict(report_of(first)["config"]["params"], out_dir=str(second))
        config = write_config(tmp_path / "rerun.json", params)
        assert main(["simulate", "normality", "--config", config]) == EXIT_OK
        assert (first / "normality.csv").read_bytes() == (second / "normality.csv").read_bytes()


class TestPenaltyPairs:
    @pytest.mark.parametrize("flags", [
        ["--lam", "0.1"],
        ["--rho", "0.1"],
        ["--c1", "0.5"],
        ["--c2", "0.5"],
        ["--lam", "0.1", "--rho", "0.1", "--c1", "0.5", "--c2", "0.5"],
        ["--lam", "0.1", "--c2", "0.5"],
    ])
    def test_incomplete_or_mixed_pairs_exit_1(self, tmp_path, pair_data, flags):
        code = run(["estimate", "--data", pair_data, *flags], tmp_path / "out")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("flags", [
        ["--lam", "nan", "--rho", "0.1"],
        ["--lam", "-0.1", "--rho", "0.1"],
        ["--lam", "0.1", "--rho", "inf"],
        ["--c1", "nan", "--c2", "1"],
        ["--c1", "1", "--c2=-inf"],
    ])
    @pytest.mark.parametrize("command", [
        ["estimate"], ["test", "--edges", "1,2", "--coeffs", "1,-1"],
    ])
    def test_bad_values_exit_1_before_the_solve(
        self, tmp_path, pair_data, capsys, monkeypatch, command, flags
    ):
        from multiggm import cli

        monkeypatch.setattr(cli, "solve_ggl", lambda *a: pytest.fail("solved"))
        out = tmp_path / "out"
        assert run([*command, "--data", pair_data, *flags], out) == EXIT_CONFIG
        pair = "--lam/--rho" if "--lam" in flags else "--c1/--c2"
        message = f"configuration error: {pair}: penalty parameters must be finite"
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_diagnose_bad_values_exit_1(self, tmp_path, capsys):
        from multiggm import chain_precision
        from multiggm.io import write_matrix_csv

        path = tmp_path / "om.csv"
        write_matrix_csv(chain_precision(4, 0.2), str(path))
        argv = ["diagnose", "--precision", f"{path},{path}", "--lam", "nan", "--rho", "0.1"]
        assert run(argv, tmp_path / "out") == EXIT_CONFIG
        assert "configuration error: --lam/--rho: penalty" in capsys.readouterr().err

    def test_zero_pair_is_a_complete_pair(self, tmp_path, pair_data):
        out = tmp_path / "out"
        assert run(["estimate", "--data", pair_data, "--c1", "0", "--c2", "0"], out) == EXIT_OK
        assert report_of(out)["payload"]["penalty"] == {"lam": 0.0, "rho": 0.0}


class TestDiagnoseSettings:
    """Settings the diagnostics cannot use exit 1 after the matrices are read
    and before anything is factorized or written."""

    @pytest.fixture()
    def precision(self, tmp_path):
        from multiggm import chain_precision
        from multiggm.io import write_matrix_csv

        path = tmp_path / "om.csv"
        write_matrix_csv(chain_precision(4, 0.2), str(path))
        return f"{path},{path}"

    @pytest.mark.parametrize("flags, message", [
        (["--psi", "1.5"], "psi must lie strictly in (0, 1)"),
        (["--psi", "0"], "psi must lie strictly in (0, 1)"),
        (["--lam", "0", "--rho", "0"], "penalty parameters cannot both be zero"),
        (["--sample-sizes", "100,120", "--gamma", "1"], "gamma must exceed 2"),
        (["--sample-sizes", "100,120", "--gamma", "2"], "gamma must exceed 2"),
        (["--sample-sizes", "100,120", "--gamma", "nan"], "gamma must exceed 2"),
        (["--sample-sizes", "100,120", "--gamma", "inf"], "gamma must exceed 2"),
        (["--eigen-bound", "0"], "eigen bound must be finite and positive"),
        (["--eigen-bound", "-1"], "eigen bound must be finite and positive"),
        (["--eigen-bound", "nan"], "eigen bound must be finite and positive"),
        (["--eigen-bound", "inf"], "eigen bound must be finite and positive"),
        (["--k1", "nan"], "k1 must be finite"),
        (["--k1", "inf"], "k1 must be finite"),
    ])
    def test_exit_1_before_any_factorization(
        self, tmp_path, capsys, monkeypatch, precision, flags, message
    ):
        from multiggm import core, diagnostics

        def no_factorization(*args):
            pytest.fail("factorized before the flags were checked")

        monkeypatch.setattr(core, "cholesky_pd", no_factorization)
        monkeypatch.setattr(diagnostics, "_population", no_factorization)
        out = tmp_path / "out"
        assert run(["diagnose", "--precision", precision, *flags], out) == EXIT_CONFIG
        assert f"configuration error: {message}" in capsys.readouterr().err
        assert not (out / "diagnostics.json").exists()

    def test_gamma_unused_without_sample_sizes(self, tmp_path, precision):
        out = tmp_path / "out"
        assert run(["diagnose", "--precision", precision, "--gamma", "1"], out) == EXIT_OK
        assert (out / "diagnostics.json").exists()

    def test_indefinite_precision_is_a_data_error(self, tmp_path, capsys):
        from multiggm.io import write_matrix_csv

        path = tmp_path / "indefinite.csv"
        write_matrix_csv(np.array([[1.0, 2.0], [2.0, 1.0]]), str(path))
        out = tmp_path / "out"
        assert run(["diagnose", "--precision", f"{path},{path}"], out) == EXIT_DATA
        assert "data error: precision 1 is not positive definite" in capsys.readouterr().err
        assert not (out / "diagnostics.json").exists()
        assert not (out / "report.json").exists()


class TestOutDir:
    """An ``--out-dir`` that is a file, lies under one, or is empty exits 1
    before the command reads its input, and nothing is created."""

    @pytest.fixture(params=["file", "under_file", "empty"])
    def out_dir(self, request, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("keep\n")
        return {"file": str(blocker), "under_file": str(blocker / "out"),
                "empty": ""}[request.param]

    def check(self, tmp_path, capsys, argv, out_dir):
        before = sorted(tmp_path.rglob("*"))
        assert main([*argv, "--out-dir", out_dir, "-q"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: --out-dir {out_dir}")
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "blocker").read_text() == "keep\n"

    def test_estimate(self, tmp_path, pair_data, capsys, monkeypatch, out_dir):
        from multiggm import cli

        reads = []
        monkeypatch.setattr(cli, "ingest_csv", lambda *a, **kw: reads.append(a))
        self.check(tmp_path, capsys, ["estimate", "--data", pair_data], out_dir)
        assert reads == []

    def test_simulate(self, tmp_path, capsys, monkeypatch, out_dir):
        from multiggm import experiments

        calls = []
        monkeypatch.setattr(experiments, "_solve", lambda *a: calls.append(a))
        argv = ["simulate", "tpfp", "--p", "6", "--n", "50", "--B", "2"]
        self.check(tmp_path, capsys, argv, out_dir)
        assert calls == []


class TestRequiredValues:
    def test_test_needs_edges_and_coeffs(self, tmp_path, pair_data):
        base = ["test", "--data", pair_data, "--c1", "0.5", "--c2", "1.0"]
        assert run(base + ["--coeffs", "1,-1"], tmp_path / "a") == EXIT_CONFIG
        assert run(base + ["--edges", "1,2"], tmp_path / "b") == EXIT_CONFIG

    def test_test_checks_coeffs_and_edges_before_the_solve(
        self, tmp_path, pair_data, capsys, monkeypatch
    ):
        from multiggm import cli

        solves = []

        def counting(*args, **kwargs):
            solves.append(1)
            return solve(*args, **kwargs)

        solve = cli.solve_ggl
        monkeypatch.setattr(cli, "solve_ggl", counting)
        base = ["test", "--data", pair_data, "--c1", "0.5", "--c2", "1.0"]
        assert run(base + ["--edges", "1,2", "--coeffs", "1"], tmp_path / "a") == EXIT_CONFIG
        assert "configuration error: 1 coefficients for 2 populations" in capsys.readouterr().err
        argv = base + ["--edges", "1,2;3,7;9,1", "--coeffs", "1,-1"]
        assert run(argv, tmp_path / "b") == EXIT_CONFIG
        assert "configuration error: edge (3,7) out of range for p=6" in capsys.readouterr().err
        assert run(base + ["--edges", "1,2", "--coeffs", "0,-0"], tmp_path / "z") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error: at least one combination coefficient must be nonzero" in err
        assert solves == []
        # A malformed file is still a data error whatever the flags.
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\nx,4\n")
        argv = ["test", "--data", f"{bad},{bad}", "--edges", "1,9", "--coeffs", "1", "--c1", "1"]
        assert run(argv, tmp_path / "c") == EXIT_DATA
        assert solves == []
        assert run(base + ["--edges", "1,2", "--coeffs", "1,-1"], tmp_path / "d") == EXIT_OK
        assert solves == [1]

    @pytest.mark.parametrize("coeffs", ["nan,1", "inf,1", "1,-inf"])
    def test_nonfinite_coeffs_exit_1_before_the_solve(
        self, tmp_path, pair_data, capsys, monkeypatch, coeffs
    ):
        from multiggm import cli

        monkeypatch.setattr(cli, "solve_ggl", lambda *a: pytest.fail("solved"))
        argv = ["test", "--data", pair_data, "--c1", "0.5", "--c2", "1.0", "--edges", "1,2",
                "--coeffs", coeffs]
        assert run(argv, tmp_path / "out") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"configuration error: combination coefficients must be finite, got {coeffs}" in err
        assert not (tmp_path / "out").exists()

    def test_data_from_config_file(self, tmp_path, pair_data):
        out = tmp_path / "out"
        config = write_config(tmp_path / "c.json", {"data": pair_data})
        assert run(["estimate", "--config", config, "--c1", "0.5", "--c2", "1.0"], out) == EXIT_OK

    def test_diagnose_sample_sizes_one_per_population(self, tmp_path):
        from multiggm import chain_precision
        from multiggm.io import write_matrix_csv

        paths = []
        for k in range(2):
            path = tmp_path / f"om{k}.csv"
            write_matrix_csv(chain_precision(4, 0.2), str(path))
            paths.append(str(path))
        argv = ["diagnose", "--precision", ",".join(paths), "--sample-sizes"]
        assert run(argv + ["600"], tmp_path / "a") == EXIT_CONFIG
        assert run(argv + ["600,600"], tmp_path / "b") == EXIT_OK


class TestThreadsOnlyForSimulate:
    @pytest.mark.parametrize("argv", [
        ["estimate", "--c1", "0.5", "--c2", "1.0"],
        ["test", "--c1", "0.5", "--c2", "1.0", "--edges", "1,2", "--coeffs", "1,-1"],
        ["tune", "--c1-grid", "1.0", "--c2-grid", "1.0"],
    ])
    def test_flag_and_key_exit_1(self, tmp_path, pair_data, capsys, argv):
        argv = argv + ["--data", pair_data]
        assert run(argv + ["--threads", "4"], tmp_path / "a") == EXIT_CONFIG
        config = write_config(tmp_path / "c.json", {"threads": 4})
        assert run(argv + ["--config", config], tmp_path / "b") == EXIT_CONFIG
        assert "threads" in capsys.readouterr().err
        assert run(argv, tmp_path / "c") == EXIT_OK
        assert "threads" not in report_of(tmp_path / "c")["config"]["params"]

    def test_diagnose_rejects_threads(self, tmp_path):
        from multiggm import chain_precision
        from multiggm.io import write_matrix_csv

        path = tmp_path / "om.csv"
        write_matrix_csv(chain_precision(4, 0.2), str(path))
        argv = ["diagnose", "--precision", str(path), "--threads", "2"]
        assert run(argv, tmp_path / "out") == EXIT_CONFIG

    def test_simulate_keeps_threads(self, tmp_path):
        out = tmp_path / "out"
        assert run(TPFP_ARGV + ["--B", "2", "--threads", "2"], out) == EXIT_OK
        assert report_of(out)["config"]["params"]["threads"] == 2
        assert run(TPFP_ARGV + ["--threads", "0"], tmp_path / "zero") == EXIT_CONFIG


class TestSeedOnlyForSimulate:
    """Only ``simulate`` draws anything, so only it takes ``--seed``."""

    @pytest.mark.parametrize("argv", [
        ["estimate", "--c1", "0.5", "--c2", "1.0"],
        ["test", "--c1", "0.5", "--c2", "1.0", "--edges", "1,2", "--coeffs", "1,-1"],
        ["tune", "--c1-grid", "1.0", "--c2-grid", "1.0"],
    ])
    def test_flag_and_key_exit_1(self, tmp_path, pair_data, capsys, argv):
        argv = argv + ["--data", pair_data]
        assert run(argv + ["--seed", "1"], tmp_path / "a") == EXIT_CONFIG
        config = write_config(tmp_path / "c.json", {"seed": 1})
        assert run(argv + ["--config", config], tmp_path / "b") == EXIT_CONFIG
        assert "unknown key(s) in config" in capsys.readouterr().err
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()
        assert run(argv, tmp_path / "c") == EXIT_OK
        assert "seed" not in report_of(tmp_path / "c")["config"]["params"]

    def test_diagnose_rejects_seed(self, tmp_path):
        from multiggm import chain_precision
        from multiggm.io import write_matrix_csv

        path = tmp_path / "om.csv"
        write_matrix_csv(chain_precision(4, 0.2), str(path))
        argv = ["diagnose", "--precision", str(path), "--seed", "2"]
        assert run(argv, tmp_path / "out") == EXIT_CONFIG

    def test_simulate_repeats_under_its_seed(self, tmp_path):
        outputs = []
        for name, seed in (("a", "5"), ("b", "5"), ("c", "6")):
            out = tmp_path / name
            assert run(TPFP_ARGV + ["--B", "2", "--seed", seed], out) == EXIT_OK
            assert report_of(out)["config"]["params"]["seed"] == int(seed)
            outputs.append((out / "tpfp.csv").read_bytes() + (out / "tpfp.json").read_bytes())
        assert outputs[0] == outputs[1] != outputs[2]


def test_negative_seed_runs(tmp_path):
    argv = ["simulate", "consistency", "--p", "6", "--n", "100", "--B", "1",
            "--penalty-rule", "fixed", "--seed", "-1"]
    assert run(argv, tmp_path / "out") == EXIT_OK


class TestSimulateChecks:
    def test_alpha_is_not_a_simulate_option(self, tmp_path, capsys):
        assert run(TPFP_ARGV + ["--alpha", "0.9"], tmp_path / "a") == EXIT_CONFIG
        config = write_config(tmp_path / "c.json", {"alpha": 0.9})
        assert run(TPFP_ARGV + ["--config", config], tmp_path / "b") == EXIT_CONFIG
        assert "unknown key(s) in config" in capsys.readouterr().err
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()

    def test_ci_level_outside_unit_interval_is_a_config_error(self, tmp_path, capsys):
        argv = ["simulate", "coverage", "--p", "8", "--n", "100", "--B", "1",
                "--penalty-rule", "fixed", "--ci-level", "1.5"]
        assert run(argv, tmp_path / "out") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error: ci_level must lie strictly in (0, 1)" in err
        assert "alpha" not in err
        assert not (tmp_path / "out").exists()

    def test_ci_level_without_a_finite_quantile_is_a_config_error(
        self, tmp_path, capsys, monkeypatch
    ):
        from multiggm import experiments

        monkeypatch.setattr(experiments, "_solve", lambda *a: pytest.fail("solved"))
        argv = ["simulate", "coverage", "--p", "8", "--n", "100", "--B", "1",
                "--penalty-rule", "fixed", "--ci-level", "1e-300"]
        assert run(argv, tmp_path / "out") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error: ci_level is too close to 0 in double precision" in err
        assert "alpha" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [["--c1", "nan"], ["--c2", "inf"], ["--c1", "-1"]])
    def test_bad_fixed_constants_are_config_errors(self, tmp_path, capsys, flags):
        argv = ["simulate", "normality", "--p", "8", "--n", "100", "--B", "1",
                "--penalty-rule", "fixed", *flags]
        assert run(argv, tmp_path / "out") == EXIT_CONFIG
        assert "configuration error: fixed_constants must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_of_range_edge_is_a_config_error(self, tmp_path, capsys):
        argv = ["simulate", "normality", "--p", "8", "--n", "100", "--B", "1",
                "--penalty-rule", "fixed", "--edges", "1,20"]
        assert run(argv, tmp_path / "out") == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error: edge (1,20) out of range for p=8" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--p", "0"], "dimension p=0 must be at least 1"),
        (["--n", "0"], "sample size n=0 must be at least 2"),
        (["--n", "1"], "sample size n=1 must be at least 2"),
        (["--n", "100,1"], "sample size n=1 must be at least 2"),
    ])
    def test_dimension_and_sample_size_are_config_errors(
        self, tmp_path, capsys, monkeypatch, flags, message
    ):
        from multiggm import experiments

        calls = []
        monkeypatch.setattr(experiments, "_solve", lambda *a: calls.append(a))
        assert run([*TPFP_ARGV, *flags], tmp_path / "out") == EXIT_CONFIG
        assert f"configuration error: {message}" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--graph", "star", "--star-d=-1", "--p", "10"], "degree d=-1 must satisfy 0 <= d < p=10"),
        (["--chain-rho", "0.2,0.9", "--p", "10"],
         "chain parameter rho=0.9 is not positive definite at p=10"),
        (["--graph", "star", "--star-diag", "2", "--star-offdiag", "0.3,0.4"],
         "star spec needs matching diag and offdiag value lists"),
        (["--graph", "star", "--star-d", "25", "--p", "40,10"],
         "degree d=25 must satisfy 0 <= d < p=10"),
        (["--graph", "star", "--star-d", "4", "--star-offdiag", "0.3,1.5", "--p", "10"],
         "star parameters are not positive definite"),
        (["--chain-rho", "nan,0.2"], "chain parameter rho=nan must be finite"),
        (["--graph", "star", "--star-diag", "nan,2"],
         "star parameters must be finite, got diag=nan, offdiag=0.3"),
        (["--graph", "star", "--star-offdiag", "nan,0.3"],
         "star parameters must be finite, got diag=2.0, offdiag=nan"),
        (["--graph", "star", "--star-diag", "inf,2"],
         "star parameters must be finite, got diag=inf, offdiag=0.3"),
    ])
    def test_graph_flags_are_config_errors(self, tmp_path, capsys, monkeypatch, flags, message):
        from multiggm import experiments

        calls = []
        monkeypatch.setattr(experiments, "_solve", lambda *a: calls.append(a))
        argv = ["simulate", "tpfp", "--n", "100", "--penalty-rule", "fixed", *flags]
        assert run(argv, tmp_path / "out") == EXIT_CONFIG
        assert f"configuration error: {message}" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["consistency", "tpfp", "supnorm", "normality", "coverage"])
    def test_payload_counts_p_n_cells(self, tmp_path, kind):
        argv = ["simulate", kind, "--p", "6,8", "--n", "100,120,150", "--B", "1",
                "--penalty-rule", "fixed"]
        assert run(argv, tmp_path / "out") == EXIT_OK
        assert report_of(tmp_path / "out")["payload"] == {
            "experiment": kind, "cells": 6, "lanes": 1, "failed_seeds": {},
        }


def strict_json(path):
    """``json.loads`` that refuses NaN and Infinity, as RFC 8259 does."""

    def refuse(constant):
        raise ValueError(f"{path.name} holds {constant}")

    return json.loads(path.read_text(), parse_constant=refuse)


SIMULATE_SMALL = ["--p", "6", "--n", "100", "--B", "2", "--penalty-rule", "fixed"]


class TestStrictJson:
    """Every JSON file a command writes parses as strict JSON; a value that
    is not a finite number is written as null."""

    @pytest.fixture()
    def precision(self, tmp_path):
        from multiggm import chain_precision
        from multiggm.io import write_matrix_csv

        paths = [tmp_path / "om1.csv", tmp_path / "om2.csv"]
        for path, rho in zip(paths, (0.2, 0.35)):
            write_matrix_csv(chain_precision(6, rho), str(path))
        return ",".join(map(str, paths))

    @pytest.mark.parametrize("argv", [
        ["estimate", "--debias", "--c1", "1", "--c2", "1"],
        ["test", "--edges", "1,2;1,4", "--coeffs", "1,-1", "--c1", "1", "--c2", "1"],
        ["tune", "--c1-grid", "0.5,1", "--c2-grid", "0.5,1"],
    ])
    def test_data_commands(self, tmp_path, pair_data, argv):
        out = tmp_path / "out"
        assert run([*argv, "--data", pair_data], out) == EXIT_OK
        assert [strict_json(path) for path in out.glob("*.json")]

    @pytest.mark.parametrize("argv", [
        [study, *SIMULATE_SMALL]
        for study in ("consistency", "tpfp", "supnorm", "normality", "coverage")
    ])
    def test_simulate(self, tmp_path, argv):
        out = tmp_path / "out"
        assert run(["simulate", *argv], out) == EXIT_OK
        assert len([strict_json(path) for path in out.glob("*.json")]) == 2

    def test_coverage_of_an_empty_set_is_null(self, tmp_path):
        # Population 2's entries of 1e-9 are not edges, so its S set is empty.
        out = tmp_path / "out"
        argv = ["simulate", "coverage", "--chain-rho", "0.2,1e-9", *SIMULATE_SMALL]
        assert run(argv, out) == EXIT_OK
        coverage = strict_json(out / "coverage.json")
        strict_json(out / "report.json")
        empty = coverage["cells"]["6/100/1/S"]
        assert empty["edges"] == 0 and empty["coverage"] is None

    @pytest.mark.parametrize("flags", [[], ["--sample-sizes", "600,700"]])
    def test_diagnose(self, tmp_path, precision, flags):
        out = tmp_path / "out"
        assert run(["diagnose", "--precision", precision, *flags], out) == EXIT_OK
        diagnostics = strict_json(out / "diagnostics.json")
        strict_json(out / "report.json")
        deltas = [pop["delta"] for pop in diagnostics["populations"]]
        assert (deltas == [None, None]) == (not flags)


def test_cli_defaults_equal_the_library_defaults():
    # The flags' defaults repeat the library's; a change to one side alone
    # would make the CLI run something other than the library's default.
    import dataclasses
    import inspect

    from multiggm import (
        TuningGrid,
        confidence_interval,
        diagnostics_report,
        test_linear_combo,
        two_population_star_spec,
    )
    from multiggm.cli import _float_list, resolve_config
    from multiggm.diagnostics import check_settings
    from multiggm.selection import DEFAULT_GRID_VALUES

    def default(function, name):
        return inspect.signature(function).parameters[name].default

    fields = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    sim = resolve_config(["simulate", "tpfp"])
    assert (sim.c1, sim.c2) == fields["fixed_constants"]
    for name in ("ci_level", "threads", "penalty_rule", "retune_per_replication"):
        assert getattr(sim, name) == fields[name], name
    chain, star = two_population_chain_spec(), two_population_star_spec()
    assert tuple(_float_list(sim.chain_rho)) == chain.chain_rho
    assert (sim.star_d, sim.hub_seed) == (star.star_d, star.hub_seed)
    assert tuple(_float_list(sim.star_diag)) == star.star_diag
    assert tuple(_float_list(sim.star_offdiag)) == star.star_offdiag

    tune, grid = resolve_config(["tune"]), TuningGrid()
    assert tune.gamma == grid.gamma
    for flag, values in ((tune.c1_grid, grid.c1_values), (tune.c2_grid, grid.c2_values)):
        assert tuple(_float_list(flag)) == values == DEFAULT_GRID_VALUES

    test = resolve_config(["test"])
    assert test.alpha == default(test_linear_combo, "alpha_level")
    assert test.ci_level == default(confidence_interval, "level")

    diag = resolve_config(["diagnose"])
    assert diag.psi == default(diagnostics_report, "psi")
    for name in ("gamma", "k1"):
        assert getattr(diag, name) == default(diagnostics_report, name) == default(
            check_settings, name
        ), name
