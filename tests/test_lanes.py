"""Forked lanes: the same results, errors and files as the serial loop, no child left."""

import errno
import json
import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiggm import _lanes, experiments, io, two_population_chain_spec
from multiggm._lanes import lane_count, map_in_lanes, usable_cpus
from multiggm.cli import EXIT_DATA, EXIT_OK, main
from multiggm.core import draw_mvn_dataset
from multiggm.errors import DataFormatError
from multiggm.io import write_data_csv, write_matrix_csv

# At most two lanes, so a case starts at most one child, and never more
# processes than the CPUs this one may run on.
TWO = min(2, usable_cpus())


def square_unless_3_mod_5(x):
    if x % 5 == 3:
        raise ValueError(x)
    return x * x


def drain(results):
    """The values an iterator yields, then the exception it ends with, if any."""
    out = []
    try:
        for value in results:
            out.append(value)
    except ValueError as exc:
        out.append(("raised", exc.args))
    return out


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


class TestMap:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 50), max_size=7))
    def test_equals_the_serial_map_in_order(self, items):
        serial = drain(square_unless_3_mod_5(x) for x in items)
        assert drain(map_in_lanes(square_unless_3_mod_5, items, TWO)) == serial
        assert drain(map_in_lanes(square_unless_3_mod_5, items, 1)) == serial
        assert no_child_left()

    @pytest.mark.parametrize("items, first", [([0, 3, 8], 3), ([3, 8], 3), ([1, 8, 3], 8)])
    def test_first_error_in_item_order_wins(self, items, first):
        # Lane 0 (the caller) runs items 0 and 2, lane 1 item 1.
        assert drain(map_in_lanes(square_unless_3_mod_5, items, TWO))[-1] == ("raised", (first,))

    def test_one_lane_stops_at_the_first_error_as_the_loop_does(self):
        calls = []

        def record(x):
            calls.append(x)
            return square_unless_3_mod_5(x)

        assert drain(map_in_lanes(record, [0, 3, 8, 1], 1)) == [0, ("raised", (3,))]
        assert calls == [0, 3]

    def test_child_that_sends_nothing_is_rerun_in_the_caller(self):
        caller = os.getpid()

        def dies_in_child(x):
            if os.getpid() != caller:
                os._exit(1)
            return x + 1

        assert list(map_in_lanes(dies_in_child, range(5), TWO)) == [1, 2, 3, 4, 5]
        assert no_child_left()

    def test_exception_that_does_not_pickle_is_raised_from_a_rerun(self):
        class Local(Exception):  # pickled by reference, which a local class has not
            pass

        def fails_on_1(x):
            if x == 1:
                raise Local(x)
            return x

        results = map_in_lanes(fails_on_1, range(3), TWO)
        assert next(results) == 0
        with pytest.raises(Local):
            next(results)
        assert no_child_left()


class TestLaneCount:
    @pytest.mark.parametrize("cpus, items, lanes", [(4, 3, 3), (4, 8, 4), (1, 5, 1), (3, 0, 1)])
    def test_capped_by_cpus_and_items_without_a_process(self, monkeypatch, cpus, items, lanes):
        forks = []

        def no_fork():
            forks.append(1)
            raise OSError(errno.EAGAIN, "no process")

        monkeypatch.setattr(_lanes, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(os, "fork", no_fork)
        assert lane_count(items, 10, 10) == lanes
        assert lane_count(items, 9, 10) == 1
        results = map_in_lanes(square_unless_3_mod_5, range(items), lane_count(items, 10, 10))
        assert drain(results) == drain(square_unless_3_mod_5(x) for x in range(items))
        assert len(forks) == lanes - 1

    def test_one_lane_off_the_main_thread_or_beside_another(self, monkeypatch):
        monkeypatch.setattr(_lanes, "usable_cpus", lambda: 4)
        assert lane_count(2, 1, 0) == 2
        seen = []
        worker = threading.Thread(target=lambda: seen.append(lane_count(2, 1, 0)))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive() and seen == [1]
        release = threading.Event()
        waiting = threading.Thread(target=release.wait)
        waiting.start()
        try:
            assert lane_count(2, 1, 0) == 1
        finally:
            release.set()
            waiting.join(timeout=10)
        assert not waiting.is_alive()

    def test_one_lane_inside_a_multi_lane_map(self, monkeypatch):
        monkeypatch.setattr(_lanes, "usable_cpus", lambda: 2)
        caller = os.getpid()
        inside = list(map_in_lanes(lambda _: (os.getpid() == caller, lane_count(2)), [0, 1], 2))
        assert inside == [(True, 1), (False, 1)]
        assert list(map_in_lanes(lambda _: lane_count(2), [0, 1], 1)) == [2, 2]
        assert lane_count(2) == 2
        assert no_child_left()


@pytest.fixture(params=[1, 2])
def lanes(request, monkeypatch):
    """Lanes the I/O of a command may use: gates at 0, or above any file."""
    gate = 0 if request.param == 2 else float("inf")
    monkeypatch.setattr(io, "_LANE_MIN_BYTES", gate)
    monkeypatch.setattr(io, "_LANE_MIN_CELLS", gate)
    return min(request.param, lane_count(2, 1, 0))


@pytest.fixture()
def data(tmp_path):
    truth = two_population_chain_spec().build(6)
    paths = []
    for k, x in enumerate(draw_mvn_dataset(truth, (120, 150), 4).data):
        paths.append(str(tmp_path / f"pop{k + 1}.csv"))
        write_data_csv(x, paths[-1], [f"v{i}" for i in range(6)])
        write_matrix_csv(truth.matrices[k], str(tmp_path / f"om{k + 1}.csv"))
    return ",".join(paths)


def commands(data, tmp_path):
    precision = ",".join(str(tmp_path / f"om{k + 1}.csv") for k in range(2))
    penalty = ["--c1", "0.5", "--c2", "1.5"]
    return {
        "estimate": ["estimate", "--data", data, "--debias", *penalty],
        "test": ["test", "--data", data, "--edges", "1,2;2,3", "--coeffs", "1,-1", *penalty],
        "tune": ["tune", "--data", data, "--c1-grid", "0.5,1", "--c2-grid", "1.5"],
        "simulate": ["simulate", "tpfp", "--p", "6", "--n", "100", "--B", "1",
                     "--penalty-rule", "fixed"],
        "diagnose": ["diagnose", "--precision", precision, "--sample-sizes", "120,150"],
    }


class TestCommands:
    @pytest.mark.parametrize("name", ["estimate", "test", "tune", "simulate", "diagnose"])
    def test_no_child_outlives_a_command(self, tmp_path, data, lanes, name):
        out = tmp_path / "out"
        assert main([*commands(data, tmp_path)[name], "--out-dir", str(out), "-q"]) == EXIT_OK
        assert no_child_left()
        timings = json.loads((out / "report.json").read_text())["timings"]
        assert timings["write_lanes"] == (lanes if name == "estimate" else 1)
        reads = name in ("estimate", "test", "tune")
        assert timings.get("read_lanes") == (lanes if reads else None)

    def test_csvs_identical_at_one_and_two_lanes(self, tmp_path, data, monkeypatch):
        outputs = {}
        for gate in (float("inf"), 0):
            monkeypatch.setattr(io, "_LANE_MIN_BYTES", gate)
            monkeypatch.setattr(io, "_LANE_MIN_CELLS", gate)
            for name in ("estimate", "test"):
                out = tmp_path / f"{name}-{gate}"
                assert main([*commands(data, tmp_path)[name], "--out-dir", str(out), "-q"]) == 0
                for path in sorted(out.glob("*.csv")):
                    outputs.setdefault(f"{name}/{path.name}", []).append(path.read_bytes())
        assert len(outputs) == 5
        assert all(one == two for one, two in outputs.values())


class TestErrorOrder:
    """The error the serial loop raises first, whatever lane found it."""

    CONSTANT = ["a,b", "1,5", "2,5", "3,5"]
    NOT_UTF8 = b"\xff\xfe1,2\n"

    def write(self, tmp_path, files):
        paths = []
        for k, lines in enumerate(files):
            path = tmp_path / f"f{k + 1}.csv"
            if isinstance(lines, bytes):
                path.write_bytes(lines)
            else:
                path.write_text("\n".join(lines) + "\n")
            paths.append(str(path))
        return ",".join(paths)

    @pytest.mark.parametrize("files, message", [
        ([CONSTANT, NOT_UTF8], "data error: {d}/f1.csv: column 2 is constant"),
        ([NOT_UTF8, CONSTANT], "data error: cannot read {d}/f1.csv"),
        ([["a,b", "1,2", "3,4"], ["1,2", "3"], ["1,2", "x,3"]],
         "data error: {d}/f2.csv: ragged row 2"),
        ([["a,b", "1,2", "3,4"], ["a,c", "1,2"], ["1,2,3"]],
         "data error: {d}/f2.csv: variable names differ"),
    ])
    def test_first_file_in_order_wins(self, tmp_path, capsys, lanes, files, message):
        argv = ["estimate", "--data", self.write(tmp_path, files), "--standardize",
                "--c1", "1", "--c2", "1", "--out-dir", str(tmp_path / "out"), "-q"]
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err.startswith(message.format(d=tmp_path))
        assert no_child_left()


class TestGridAndReplications:
    """The e-BIC grid and the replications of ``simulate`` in two lanes."""

    TUNE = ["tune", "--c1-grid", "0.5,1", "--c2-grid", "1,2"]
    TPFP = ["simulate", "tpfp", "--p", "6", "--n", "100,120", "--B", "2", "--threads", "2"]

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(_lanes, "usable_cpus", lambda: 2)

    def run(self, argv, out):
        return main([*argv, "--out-dir", str(out), "-q"])

    def test_no_child_outlives_tune_or_simulate(self, tmp_path, data):
        assert self.run([*self.TUNE, "--data", data], tmp_path / "tune") == EXIT_OK
        assert no_child_left()
        report = json.loads((tmp_path / "tune" / "report.json").read_text())
        assert report["payload"]["grid_lanes"] == 2
        assert self.run(self.TPFP, tmp_path / "sim") == EXIT_OK
        assert no_child_left()
        report = json.loads((tmp_path / "sim" / "report.json").read_text())
        assert report["payload"]["lanes"] == 2

    def test_replication_error_exits_with_its_code(self, tmp_path, monkeypatch, capsys):
        caller = os.getpid()
        solve = experiments._solve

        def fails_in_child(covs, penalty, opts):
            if os.getpid() != caller:
                raise DataFormatError("injected in a replication")
            return solve(covs, penalty, opts)

        monkeypatch.setattr(experiments, "_solve", fails_in_child)
        argv = [*self.TPFP, "--penalty-rule", "fixed"]
        assert self.run(argv, tmp_path / "out") == EXIT_DATA
        assert capsys.readouterr().err == "data error: injected in a replication\n"
        assert no_child_left()

    def test_retuned_replications_fork_one_child_per_cell(self, tmp_path, monkeypatch):
        # Every process appends its forks to one file, so a fork in a child
        # (a grid in lanes inside a replication lane) would show too.
        log = tmp_path / "forks"
        fork = os.fork

        def logged_fork():
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return fork()

        monkeypatch.setattr(os, "fork", logged_fork)
        argv = [*self.TPFP, "--retune-per-replication"]
        assert self.run(argv, tmp_path / "out") == EXIT_OK
        assert log.read_text().split() == [str(os.getpid())] * 2
        assert no_child_left()
