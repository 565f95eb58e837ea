"""The benchmark's three workloads.

Each workload builds all of its inputs from the benchmark seed, so the
program only ever sees generated data.  ``setup`` is timed (five times per
run) and makes ``draws`` independent input sets; ``op(d)`` is the unit of
work the timed loop repeats, on input set ``d``.  Cycling through several
draws averages the data-dependent part of the work (iteration counts,
certificate reruns) within one run.  ``check`` verifies the program's
outputs after the loop, and ``summary`` turns the loop's wall times into the
workload's own named metrics.

A workload calls the package through module attributes (``cli.main``,
``selection.tune_penalties``, ``experiments.run_normality``) so that the
traced run's wrappers see every call.
"""

from __future__ import annotations

import csv
import math
import os
import statistics
import time
from dataclasses import replace

from multiggm import cli, experiments, selection
from multiggm.core import PrecisionSet, derive_seed, draw_mvn_dataset, sample_covariance
from multiggm.experiments import ExperimentConfig
from multiggm.graphs import star_precision, two_population_chain_spec, two_population_star_spec
from multiggm.io import ingest_csv, read_matrix_csv, write_data_csv
from multiggm.selection import TuningGrid, penalty_scale
from multiggm.solver import PenaltyPair, SolverOptions, kkt_residual, solve_ggl

# The solver's own certificate gate: converged solves reach KKT <= 10 * tol_abs.
KKT_GATE = 10.0 * SolverOptions().tol_abs


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class McNormality:
    """``run_normality`` on the reference chain at fixed penalty constants."""

    name = "mc_normality_p50"
    draws = 1  # each call already averages over its replications

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.p = 10 if tiny else 50
        self.n = 600
        self.reps = 3 if tiny else 10
        self.config = ExperimentConfig(
            graph=two_population_chain_spec(),
            dims=(self.p,),
            sample_sizes=(self.n,),
            replications=self.reps,
            # derive_seed packs its inputs as signed 64-bit integers, so a
            # base seed must stay below 2**63.
            base_seed=derive_seed(seed, 1) >> 1,
            penalty_rule="fixed",
            fixed_constants=(0.25, 0.5),
            edges_of_interest=((1, 2),),
            threads=1,
        )

    def setup(self) -> None:
        experiments.run_normality(replace(self.config, replications=1))

    def op(self, draw: int) -> dict:
        result = experiments.run_normality(self.config)
        failures = sum(result.failure_counts.values())
        bad = [
            label for label, values in result.samples.items()
            if len(values) != self.reps - failures or not all(map(math.isfinite, values))
        ]
        problems = [f"{failures} replications did not converge"] if failures else []
        problems += [f"statistic {label} is missing values or not finite" for label in bad]
        return {"attempted": self.reps, "failed": failures + len(bad), "problems": problems}

    def check(self) -> list[str]:
        return []

    def sizes(self) -> dict:
        return {
            "p": self.p, "n": [self.n, self.n], "replications_per_call": self.reps,
            "constants": list(self.config.fixed_constants),
        }

    def summary(self, walls, parts) -> dict:
        return {"reps_per_s": (self.reps * len(walls) / sum(walls), "1/s", len(walls))}


class TuneChain:
    """The e-BIC grid search on chain draws made in set-up."""

    name = "tune_chain_p100"
    draws = 3

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.p = 10 if tiny else 100
        self.n = 600
        self.grid = TuningGrid((0.5, 1.0), (0.5, 1.0)) if tiny else TuningGrid()
        self.seeds = [derive_seed(seed, 2, d) for d in range(self.draws)]
        self.result = None

    def setup(self) -> None:
        truth = two_population_chain_spec().build(self.p)
        self.covs = [
            sample_covariance(draw_mvn_dataset(truth, (self.n, self.n), s)) for s in self.seeds
        ]
        one_cell = TuningGrid(self.grid.c1_values[:1], self.grid.c2_values[:1])
        selection.tune_penalties(self.covs[0], one_cell)

    def op(self, draw: int) -> dict:
        self.last = draw
        self.result = selection.tune_penalties(self.covs[draw], self.grid)
        failed = sum(not cell.converged for cell in self.result.table)
        problems = [f"{failed} grid cells did not converge"] if failed else []
        return {"attempted": len(self.result.table), "failed": failed, "problems": problems}

    def check(self) -> list[str]:
        covs, penalty = self.covs[self.last], self.result.best_penalty
        refit = solve_ggl(covs, penalty)
        kkt = kkt_residual(refit.estimate, covs, penalty)
        if not refit.converged or kkt > KKT_GATE:
            return [f"refit at the chosen penalty: converged={refit.converged}, KKT {kkt:.3g}"]
        return []

    def sizes(self) -> dict:
        return {
            "p": self.p, "n": [self.n, self.n], "draws": self.draws,
            "grid": [len(self.grid.c1_values), len(self.grid.c2_values)],
            "chosen_last": list(self.result.best_constants) if self.result else None,
        }

    def summary(self, walls, parts) -> dict:
        return {"tune_s": (_median(walls), "s", len(walls))}


class CliStar:
    """``estimate --debias`` then ``test`` through the CLI on star-graph CSVs."""

    name = "cli_star_p400"
    draws = 2
    c1, c2, degree = 0.5, 1.5, 25

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.p = 30 if tiny else 400
        self.n = 600
        self.spec = two_population_star_spec(d=self.degree, hub_seed=derive_seed(seed, 3))
        self.seeds = [derive_seed(seed, 4, d) for d in range(self.draws)]
        self.data = [
            [os.path.join(workdir, f"data_d{d}_k{k + 1}.csv") for k in range(2)]
            for d in range(self.draws)
        ]
        self.small = [os.path.join(workdir, f"small_k{k + 1}.csv") for k in range(2)]
        self.out = os.path.join(workdir, "out")
        _, hub, spokes = star_precision(self.p, self.degree, 2.0, 0.3, self.spec.hub_seed)
        pairs = [(hub, s) for s in spokes[:3]] + [(spokes[0], spokes[1])]
        edges = ";".join(f"{i + 1},{j + 1}" for i, j in pairs)
        penalty = ["--c1", str(self.c1), "--c2", str(self.c2), "-q"]
        self.argv = []
        for paths in self.data:
            data = ["--data", ",".join(paths), "--out-dir", self.out]
            self.argv.append((
                ["estimate", *data, "--debias", *penalty],
                ["test", *data, "--edges", edges, "--coeffs", "1,-1", *penalty],
            ))

    def setup(self) -> None:
        truth = self.spec.build(self.p)
        names = [f"x{i + 1}" for i in range(self.p)]
        for seed, paths in zip(self.seeds, self.data):
            dataset = draw_mvn_dataset(truth, (self.n, self.n), seed)
            for x, path in zip(dataset.data, paths):
                write_data_csv(x, path, names)
        for x, small in zip(dataset.data, self.small):
            write_data_csv(x[:60, :10], small, names[:10])
        warm_out = os.path.join(os.path.dirname(self.out), "warmup")
        code = cli.main(["estimate", "--data", ",".join(self.small), "--out-dir", warm_out,
                         "--c1", str(self.c1), "--c2", str(self.c2), "-q"])
        if code != 0:
            raise RuntimeError(f"warm-up estimate exited {code}")

    def op(self, draw: int) -> dict:
        self.last = draw
        estimate_argv, test_argv = self.argv[draw]
        start = time.perf_counter()
        estimate_code = cli.main(estimate_argv)
        middle = time.perf_counter()
        test_code = cli.main(test_argv)
        end = time.perf_counter()
        codes = {"estimate": estimate_code, "test": test_code}
        problems = [f"{c} exited {code}" for c, code in codes.items() if code != 0]
        return {
            "attempted": 2, "failed": len(problems), "problems": problems,
            "parts": {"estimate_s": middle - start, "test_s": end - middle},
        }

    def check(self) -> list[str]:
        """Read back the last operation's outputs and recompute the certificate."""
        covs = sample_covariance(ingest_csv(self.data[self.last]))
        scale = penalty_scale(covs.p, min(covs.sample_sizes))
        penalty = PenaltyPair(self.c1 * scale, self.c2 * scale)
        estimate = PrecisionSet(
            [read_matrix_csv(os.path.join(self.out, f"estimate_k{k + 1}.csv")) for k in range(2)],
            positive_definite=True,
        )
        problems = []
        kkt = kkt_residual(estimate, covs, penalty)
        if kkt > KKT_GATE:
            problems.append(f"estimate CSVs have KKT residual {kkt:.3g} > {KKT_GATE:g}")
        with open(os.path.join(self.out, "tests.csv"), newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        p_values = [float(row[5]) for row in rows]
        if len(rows) != 4 or not all(0.0 <= v <= 1.0 for v in p_values):
            problems.append(f"tests.csv: {len(rows)} rows, p-values {p_values}")
        return problems

    def sizes(self) -> dict:
        return {
            "p": self.p, "n": [self.n, self.n], "draws": self.draws,
            "star_degree": self.degree, "constants": [self.c1, self.c2],
            "csv_bytes": [os.path.getsize(path) for paths in self.data for path in paths],
        }

    def summary(self, walls, parts) -> dict:
        return {
            name: (_median([p[name] for p in parts]), "s", len(parts))
            for name in ("estimate_s", "test_s")
        }


WORKLOADS = {w.name: w for w in (McNormality, TuneChain, CliStar)}
