"""Solves run numpy's OpenBLAS at one thread, then restore."""

import json
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from multiggm import (
    CovarianceSet,
    DataFormatError,
    PenaltyPair,
    draw_mvn_dataset,
    sample_covariance,
    solve_ggl,
    two_population_chain_spec,
)
from multiggm import ExperimentConfig, _blas, _lanes, experiments, selection, solver
from multiggm.cli import REPORT_SCHEMA, main
from multiggm.io import write_data_csv
from multiggm.selection import TuningGrid, penalty_scale

LIBRARIES = _blas.libraries()
pytestmark = pytest.mark.skipif(not LIBRARIES, reason="no OpenBLAS thread symbols found")


def counts():
    return [lib.get_num_threads() for lib in LIBRARIES]


@pytest.fixture()
def caller_counts():
    """Give each library its own count (2, 3, ...) and undo it afterwards."""
    before = counts()
    wanted = [2 + i for i in range(len(LIBRARIES))]
    for lib, n in zip(LIBRARIES, wanted):
        lib.set_num_threads(n)
    assert counts() == wanted
    yield wanted
    for lib, n in zip(LIBRARIES, before):
        lib.set_num_threads(n)


@pytest.fixture()
def seen_inside(monkeypatch):
    """Thread counts read at every ADMM iteration, from inside the solve."""
    seen = []
    prox = solver._prox_offdiag_stack

    def recording(*args):
        seen.append(tuple(counts()))
        return prox(*args)

    monkeypatch.setattr(solver, "_prox_offdiag_stack", recording)
    return seen


def chain_problem(p, seed=5):
    truth = two_population_chain_spec().build(p)
    covs = sample_covariance(draw_mvn_dataset(truth, (600, 600), seed))
    scale = penalty_scale(p, 600)
    return covs, PenaltyPair(1.0 * scale, 3.5 * scale)


def test_solve_runs_single_threaded(caller_counts, seen_inside):
    solve_ggl(*chain_problem(20))
    assert seen_inside and set(seen_inside) == {(1,) * len(LIBRARIES)}


def test_counts_restored_after_return(caller_counts):
    solve_ggl(*chain_problem(20))
    assert counts() == caller_counts


def test_counts_restored_after_raise(caller_counts):
    s = np.eye(4)
    s[2, 2] = 0.0
    covs = CovarianceSet([s, np.eye(4)], (50, 50))
    with pytest.raises(DataFormatError, match="diagonal"):
        solve_ggl(covs, PenaltyPair(0.1, 0.1))
    assert counts() == caller_counts


def test_concurrent_solves(caller_counts, seen_inside):
    problems = [chain_problem(15, seed) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(solve_ggl, *prob) for prob in problems]
            reports = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(r.converged for r in reports)
    assert len(seen_inside) == sum(r.iterations for r in reports)
    assert set(seen_inside) == {(1,) * len(LIBRARIES)}
    assert counts() == caller_counts


def test_grid_runs_single_threaded_and_leaves_no_thread(caller_counts, seen_inside, monkeypatch):
    # Two lanes.  The checks raise in whichever lane runs them, and an error
    # raised in the child comes back to the caller.
    monkeypatch.setattr(_lanes, "usable_cpus", lambda: 2)
    one = [1] * len(LIBRARIES)
    scored = []
    score = selection.ebic
    prox = solver._prox_offdiag_stack

    def checked(*args):
        if counts() != one:
            raise AssertionError(f"scored at {counts()} OpenBLAS threads in {os.getpid()}")
        scored.append(os.getpid())
        return score(*args)

    def checked_prox(*args):
        if counts() != one:
            raise AssertionError(f"solved at {counts()} OpenBLAS threads in {os.getpid()}")
        return prox(*args)

    monkeypatch.setattr(selection, "ebic", checked)
    monkeypatch.setattr(solver, "_prox_offdiag_stack", checked_prox)
    covs, _ = chain_problem(20)
    before = set(threading.enumerate())
    grid = TuningGrid((0.5, 1.0), (0.5, 1.0, 2.0))
    result = selection.tune_penalties(covs, grid)
    assert set(threading.enumerate()) == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert counts() == caller_counts
    assert result.grid_lanes == 2
    # The caller's lane scored its three of the six cells (0, 2 and 4) itself.
    assert scored == [os.getpid()] * 3
    assert seen_inside and set(seen_inside) == {(1,) * len(LIBRARIES)}

    caller = os.getpid()

    def fails_in_child(*args):
        if os.getpid() != caller:
            raise AssertionError("raised in the child")
        return checked(*args)

    monkeypatch.setattr(selection, "ebic", fails_in_child)
    with pytest.raises(AssertionError, match="raised in the child"):
        selection.tune_penalties(covs, grid)
    assert counts() == caller_counts


def test_replication_lanes_draw_single_threaded(caller_counts, monkeypatch):
    # Each lane draws its data at one thread too, since the lanes fork
    # inside the guard; a draw at any other count raises in its lane.
    monkeypatch.setattr(_lanes, "usable_cpus", lambda: 2)
    draw = experiments.draw_mvn

    def checked(*args):
        if counts() != [1] * len(LIBRARIES):
            raise AssertionError(f"drew at {counts()} OpenBLAS threads")
        return draw(*args)

    monkeypatch.setattr(experiments, "draw_mvn", checked)
    config = ExperimentConfig(
        graph=two_population_chain_spec(), dims=(8,), sample_sizes=(100,), replications=2,
        base_seed=1, penalty_rule="fixed", threads=2,
    )
    assert experiments.run_tpfp(config).lanes == 2
    assert counts() == caller_counts


def test_numpy_openblas_alone_bound_once(caller_counts, monkeypatch):
    # The libraries are numpy's; once bound, no entry or call looks again.
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    assert all((libdir / lib.name).is_file() for lib in LIBRARIES)
    monkeypatch.setattr(_blas, "_bind", None)
    with _blas.single_threaded():
        assert counts() == [1] * len(LIBRARIES)
    assert _blas.libraries() == LIBRARIES
    assert counts() == caller_counts


def test_without_libraries_nothing_changes(caller_counts, seen_inside, monkeypatch):
    problem = chain_problem(20)
    expected = solve_ggl(*problem)
    seen_inside.clear()
    monkeypatch.setattr(_blas, "_bound", [])
    got = solve_ggl(*problem)
    assert set(seen_inside) == {tuple(caller_counts)}
    for a, b in zip(got.estimate.matrices, expected.estimate.matrices):
        assert np.array_equal(a, b)


def test_estimate_does_not_depend_on_caller_threads():
    problem = chain_problem(100)
    before = counts()
    estimates = []
    try:
        for n in (1, 2):
            for lib in LIBRARIES:
                lib.set_num_threads(n)
            estimates.append(solve_ggl(*problem))
    finally:
        for lib, n in zip(LIBRARIES, before):
            lib.set_num_threads(n)
    one, two = estimates
    assert one.iterations == two.iterations
    for a, b in zip(one.estimate.matrices, two.estimate.matrices):
        assert np.array_equal(a, b)


def test_cli_restores_counts_and_reports_environment(tmp_path, caller_counts):
    truth = two_population_chain_spec().build(8)
    paths = []
    for k, x in enumerate(draw_mvn_dataset(truth, (100, 100), 3).data):
        paths.append(str(tmp_path / f"pop{k}.csv"))
        write_data_csv(x, paths[-1])
    out = tmp_path / "out"
    argv = ["estimate", "--data", ",".join(paths), "--c1", "0.5", "--c2", "1.5",
            "--out-dir", str(out), "-q"]
    assert main(argv) == 0
    assert counts() == caller_counts
    report = json.loads((out / "report.json").read_text())
    assert report["schema"] == REPORT_SCHEMA == 13
    env = report["environment"]
    assert sorted(env) == ["cpus", "numpy", "openblas", "python"]
    assert env["numpy"] == np.__version__
    assert env["cpus"] == _lanes.usable_cpus() >= 1
    assert [lib["library"] for lib in env["openblas"]] == [lib.name for lib in LIBRARIES]
    assert all(lib["solve_threads"] == 1 for lib in env["openblas"])
    assert all(lib["config"].startswith("OpenBLAS") for lib in env["openblas"])

