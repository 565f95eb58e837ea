"""Command-line interface.

Subcommands: ``estimate`` (solve, optionally debias), ``test``
(linear-combination z-tests), ``tune`` (e-BIC grid), ``simulate`` (Monte
Carlo experiments), ``diagnose`` (theory diagnostics on true precision
matrices).  Every run writes a JSON report (plus CSV tables) into
``--out-dir``; the report echoes the resolved arguments, so any run can be
reproduced from it.  ``--config`` takes a JSON object keyed by the
subcommand's argument names (``out_dir``, ``c1``, ``ci_level``, ...); flags
override its values and unknown keys are an error.

Exit codes: 0 success, 1 configuration error, 2 data error,
3 solver non-convergence (``estimate`` and ``test`` still write their
outputs and warn on stderr).  Edge indices on the command line and in all
output files are 1-based.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy

from . import __version__, _blas
from ._lanes import map_in_lanes, usable_cpus
from .core import PrecisionSet, sample_covariance
from .diagnostics import check_settings, diagnostics_report
from .errors import (
    ConfigError,
    ConvergenceError,
    DataFormatError,
    MultiGGMError,
    NotPositiveDefiniteError,
)
from .experiments import RUNNERS, ExperimentConfig
from .graphs import GraphSpec
from .inference import confidence_interval, debias, test_linear_combo
from .io import (
    ingest_csv,
    read_lanes,
    read_matrix_csv,
    write_csv_atomic,
    write_json_atomic,
    write_lanes,
    write_matrix_csv,
)
from .selection import (
    DEFAULT_GRID_VALUES,
    TuningGrid,
    penalty_scale,
    score_table_rows,
    tune_penalties,
)
from .solver import PenaltyPair, solve_ggl

REPORT_SCHEMA = 13

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NONCONVERGENCE = 3


@dataclass
class AnalysisReport:
    tool_version: str
    schema: int
    command: str
    config: dict
    environment: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    payload: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)

    def to_jsonable(self) -> dict:
        """Fields by name, built without a deep copy."""
        return dict(vars(self))


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with the config code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}")


def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"expected a comma-separated number list, got {text!r}")


def _edge_list(text: str) -> list[tuple[int, int]]:
    """Parse '1,2;3,4' into 0-based pairs."""
    edges = []
    for part in text.split(";"):
        if not part.strip():
            continue
        bits = part.split(",")
        if len(bits) != 2:
            raise ConfigError(f"bad edge {part!r}; expected 'i,j'")
        try:
            i, j = int(bits[0]), int(bits[1])
        except ValueError:
            raise ConfigError(f"bad edge {part!r}; expected integers")
        if i < 1 or j < 1:
            raise ConfigError(f"edge indices are 1-based; got {part!r}")
        edges.append((i - 1, j - 1))
    if not edges:
        raise ConfigError("no edges given")
    return edges


def build_parser() -> _Parser:
    """The parser, holding every default; ``parser.commands`` maps names to subparsers.

    No option is argparse-required, so that a config file can supply any of
    them; commands check the values they need.
    """
    parser = _Parser(prog="multiggm", description=__doc__)
    parser.add_argument(
        "--version",
        action="version",
        version=f"multiggm {__version__} (report schema {REPORT_SCHEMA})",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out-dir", default="multiggm-out", help="output directory")
        p.add_argument("-q", "--quiet", action="store_true", help="do not print output paths")

    def data_opts(p):
        p.add_argument("--data", help="comma-separated CSV paths, one per population (required)")
        p.add_argument("--center", action="store_true")
        p.add_argument("--standardize", action="store_true")
        p.add_argument("--first-difference", action="store_true")

    def penalty_opts(p):
        p.add_argument("--lam", type=float, help="l1 penalty (absolute); needs --rho")
        p.add_argument("--rho", type=float, help="group penalty (absolute); needs --lam")
        p.add_argument("--c1", type=float, help="l1 constant on the sqrt(log p / n) scale; needs --c2")
        p.add_argument("--c2", type=float, help="group constant on the sqrt(log p / n) scale; needs --c1")

    p_est = sub.add_parser("estimate", help="fit precision matrices")
    common(p_est); data_opts(p_est); penalty_opts(p_est)
    p_est.add_argument("--debias", action="store_true", help="also write debiased matrices")

    p_test = sub.add_parser("test", help="z-tests on linear combinations across populations")
    common(p_test); data_opts(p_test); penalty_opts(p_test)
    p_test.add_argument("--edges", help="semicolon-separated 1-based pairs, e.g. '1,2;2,3' (required)")
    p_test.add_argument("--coeffs", help="comma-separated combination coefficients, one per population (required)")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--ci-level", type=float, default=0.95)

    default_grid = ",".join(str(v) for v in DEFAULT_GRID_VALUES)
    p_tune = sub.add_parser("tune", help="e-BIC grid search over penalty constants")
    common(p_tune); data_opts(p_tune)
    p_tune.add_argument("--c1-grid", default=default_grid, help="comma-separated C1 values")
    p_tune.add_argument("--c2-grid", default=default_grid, help="comma-separated C2 values")
    p_tune.add_argument("--gamma", type=float, default=0.5)

    p_sim = sub.add_parser("simulate", help="Monte Carlo experiments")
    common(p_sim)
    p_sim.add_argument("experiment", choices=sorted(RUNNERS))
    p_sim.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p_sim.add_argument("--threads", type=int, default=1,
                       help="most lanes (processes) replications run in")
    p_sim.add_argument("--graph", choices=["chain", "star"], default="chain")
    p_sim.add_argument("--p", default="50", help="comma-separated dimensions")
    p_sim.add_argument("--n", default="600", help="comma-separated sample sizes")
    p_sim.add_argument("--B", type=int, default=100, help="replications")
    p_sim.add_argument("--chain-rho", default="0.2,0.35")
    p_sim.add_argument("--star-d", type=int, default=25)
    p_sim.add_argument("--star-diag", default="2.0,2.5")
    p_sim.add_argument("--star-offdiag", default="0.3,0.45")
    p_sim.add_argument("--hub-seed", type=int, default=0)
    p_sim.add_argument("--penalty-rule", choices=["ebic_grid", "fixed"], default="ebic_grid")
    p_sim.add_argument("--c1", type=float, default=1.0)
    p_sim.add_argument("--c2", type=float, default=3.5)
    p_sim.add_argument("--edges", default="1,2;2,3", help="edges for the normality experiment")
    p_sim.add_argument("--ci-level", type=float, default=0.95)
    p_sim.add_argument("--retune-per-replication", action="store_true")

    p_diag = sub.add_parser("diagnose", help="theory diagnostics on true precision matrices")
    common(p_diag)
    p_diag.add_argument("--precision", help="comma-separated matrix CSV paths, one per population (required)")
    p_diag.add_argument("--lam", type=float, default=0.1)
    p_diag.add_argument("--rho", type=float, default=0.1)
    p_diag.add_argument("--psi", type=float, default=0.5)
    p_diag.add_argument("--gamma", type=float, default=2.5)
    p_diag.add_argument("--k1", type=float, default=1.0)
    p_diag.add_argument("--eigen-bound", type=float)
    p_diag.add_argument("--sample-sizes", help="comma-separated n_k")

    return parser


def _file_defaults(sub: argparse.ArgumentParser, path: str) -> dict:
    """Read the config file at ``path`` and check it against subparser ``sub``.

    Keys must be ``sub``'s argument names.  Values other than switches and
    nulls are handed to argparse as text, so they pass the same type
    conversion as flag values.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(values, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    unknown = sorted(set(values) - set(actions))
    if unknown:
        raise ConfigError(f"unknown key(s) in config {path}: {', '.join(unknown)}")
    defaults = {}
    for key, value in values.items():
        action = actions[key]
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise ConfigError(f"config key {key!r} must be true or false")
        elif action.choices is not None and value not in action.choices:
            raise ConfigError(f"config key {key!r} must be one of {sorted(action.choices)}")
        elif value is not None:
            value = str(value)
        defaults[key] = value
    return defaults


def resolve_config(argv) -> argparse.Namespace:
    """Parse flags over the optional config file's values (flags win)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        sub = parser.commands[args.command]
        sub.set_defaults(**_file_defaults(sub, args.config))
        args = parser.parse_args(argv)
    return args


def _given(value, flag: str):
    if value is None:
        raise ConfigError(f"{flag} is required for this command")
    return value


def _existing_paths(text, name: str) -> list[str]:
    paths = [] if text is None else [p for p in text.split(",") if p.strip()]
    if not paths:
        raise ConfigError(f"--{name} is required for this command")
    for p in paths:
        if not os.path.exists(p):
            raise ConfigError(f"{name} file not found: {p}")
    return paths


def _penalty_flags(values, flags: str) -> PenaltyPair:
    """``PenaltyPair(*values)``, with a bad value reported as the flags' error."""
    try:
        return PenaltyPair(*values)
    except DataFormatError as exc:
        raise ConfigError(f"{flags}: {exc}") from None


def _resolve_penalty(args, p: int, n: int) -> PenaltyPair:
    absolute, scaled = (args.lam, args.rho), (args.c1, args.c2)
    given = [pair for pair in (absolute, scaled) if pair != (None, None)]
    if len(given) != 1 or None in given[0]:
        raise ConfigError("give one complete penalty pair: --lam with --rho, or --c1 with --c2")
    if given[0] is absolute:
        return _penalty_flags(absolute, "--lam/--rho")
    constants = _penalty_flags(scaled, "--c1/--c2")
    scale = penalty_scale(p, n)
    return PenaltyPair(constants.lam * scale, constants.rho * scale)


@contextmanager
def _phase(report: AnalysisReport, name: str):
    """Add the wall time of the ``with`` body to ``report.timings[name]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        report.timings[name] = report.timings.get(name, 0.0) + time.perf_counter() - start


def _emit(report: AnalysisReport, writer, jobs, lanes: int = 1) -> None:
    """``writer(obj, path)`` for each ``(obj, path)`` job, in ``lanes`` lanes."""
    with _phase(report, "write_s"):
        for _ in map_in_lanes(lambda job: writer(*job), jobs, lanes):
            pass
    report.timings["write_lanes"] = max(lanes, report.timings.get("write_lanes", 1))
    report.outputs.extend(path for _, path in jobs)


def _covariances(args, report: AnalysisReport):
    paths = _existing_paths(args.data, "data")
    report.timings["read_lanes"] = read_lanes(paths)
    with _phase(report, "read_s"):
        dataset = ingest_csv(
            paths,
            center=args.center,
            standardize=args.standardize,
            first_difference=args.first_difference,
        )
    return sample_covariance(dataset)


def _fit(args, report: AnalysisReport, covs):
    """Penalty and solve, shared by estimate and test.

    The callers read the data first, so a malformed file is reported as a
    data error whatever the flags.
    """
    penalty = _resolve_penalty(args, covs.p, min(covs.sample_sizes))
    with _phase(report, "solve_s"):
        solve = solve_ggl(covs, penalty)
    if not solve.converged:
        print(
            f"warning: the solve did not converge ({solve.iterations} iterations, "
            f"KKT violation {solve.kkt_violation:.3g}); outputs are written and "
            f"the exit code is {EXIT_NONCONVERGENCE}",
            file=sys.stderr,
        )
    return penalty, solve, EXIT_OK if solve.converged else EXIT_NONCONVERGENCE


def _solve_counts(solve) -> dict:
    """What the solver did and how screening split the problem, for the payload."""
    return {
        "iterations": solve.iterations,
        "certificate_calls": solve.certificate_calls,
        "acceleration_restarts": solve.acceleration_restarts,
        "blocks": len(solve.block_sizes),
        "largest_block": max(solve.block_sizes),
    }


def _estimate(args, report: AnalysisReport) -> int:
    covs = _covariances(args, report)
    penalty, solve, code = _fit(args, report, covs)
    matrices = [("estimate", solve.estimate)]
    with _phase(report, "inference_s"):
        if args.debias:
            matrices.append(("debiased", debias(solve.estimate, covs)))
    # Population-minor, so that with two lanes each writes one population.
    jobs = [
        (m, f"{args.out_dir}/{name}_k{k + 1}.csv")
        for name, stack in matrices
        for k, m in enumerate(stack.matrices)
    ]
    _emit(report, write_matrix_csv, jobs, write_lanes([m for m, _ in jobs]))
    report.payload = {
        "penalty": {"lam": penalty.lam, "rho": penalty.rho},
        "converged": solve.converged,
        **_solve_counts(solve),
        "kkt_violation": solve.kkt_violation,
        "objective": solve.objective,
        "sample_sizes": list(covs.sample_sizes),
    }
    return code


def _table(header, columns, block: int = 4096):
    """The header, then one row of plain Python numbers per pair, made as it
    is written: ``block`` rows of the columns are converted at a time."""
    yield header
    for start in range(0, len(columns[0]), block):
        yield from zip(*(c[start : start + block].tolist() for c in columns))


def _test(args, report: AnalysisReport) -> int:
    edges = _edge_list(_given(args.edges, "--edges"))
    coeffs = _float_list(_given(args.coeffs, "--coeffs"))
    covs = _covariances(args, report)
    if len(coeffs) != covs.K:
        raise ConfigError(f"{len(coeffs)} coefficients for {covs.K} populations")
    if not all(map(math.isfinite, coeffs)):
        raise ConfigError(f"combination coefficients must be finite, got {args.coeffs}")
    if not any(coeffs):
        raise ConfigError("at least one combination coefficient must be nonzero")
    for flag, level in (("--alpha", args.alpha), ("--ci-level", args.ci_level)):
        if not 0.0 < level < 1.0:
            raise ConfigError(f"{flag} must lie strictly in (0, 1), got {level}")
    rows, cols = numpy.array(edges).T
    outside = numpy.flatnonzero(numpy.maximum(rows, cols) >= covs.p)
    if outside.size:
        m = outside[0]
        raise ConfigError(f"edge ({rows[m] + 1},{cols[m] + 1}) out of range for p={covs.p}")
    penalty, solve, code = _fit(args, report, covs)
    with _phase(report, "inference_s"):
        deb = debias(solve.estimate, covs)
        r = test_linear_combo(deb, solve.estimate, covs, coeffs, rows, cols, args.alpha)
        header = ["i", "j", "estimate", "std_error", "z", "p_value", "reject"]
        columns = [rows + 1, cols + 1, r.estimate, r.std_error, r.z_stat, r.p_value,
                   r.reject.astype(int)]
        for k in range(covs.K):
            ci = confidence_interval(deb, solve.estimate, covs, k, rows, cols, args.ci_level)
            header += [f"lower_k{k + 1}", f"upper_k{k + 1}"]
            columns += [ci.lower, ci.upper]
        table = _table(header, columns)
    _emit(report, write_csv_atomic, [(table, f"{args.out_dir}/tests.csv")])
    report.payload = {
        "penalty": {"lam": penalty.lam, "rho": penalty.rho},
        "converged": solve.converged,
        **_solve_counts(solve),
        "tested": len(edges),
        "rejected": int(r.reject.sum()),
    }
    return code


def _tune(args, report: AnalysisReport) -> int:
    try:
        grid = TuningGrid(
            c1_values=tuple(_float_list(args.c1_grid)),
            c2_values=tuple(_float_list(args.c2_grid)),
            gamma=args.gamma,
        )
    except DataFormatError as exc:  # TuningGrid's error for library callers
        raise ConfigError(str(exc)) from None
    covs = _covariances(args, report)
    with _phase(report, "tune_s"):
        result = tune_penalties(covs, grid)
    _emit(report, write_csv_atomic, [(score_table_rows(result), f"{args.out_dir}/score_table.csv")])
    c1, c2 = result.best_constants
    on_edge = c1 in (grid.c1_values[0], grid.c1_values[-1]) or c2 in (
        grid.c2_values[0], grid.c2_values[-1]
    )
    if on_edge:
        print(
            f"warning: the e-BIC choice (C1, C2) = ({c1:g}, {c2:g}) is on the edge "
            "of the grid; the minimum may lie outside it",
            file=sys.stderr,
        )
    report.payload = {
        "best_constants": list(result.best_constants),
        "best_penalty": {"lam": result.best_penalty.lam, "rho": result.best_penalty.rho},
        "cells": len(result.table),
        "converged_cells": sum(cell.converged for cell in result.table),
        "iterations": sum(cell.iterations for cell in result.table),
        "certificate_calls": sum(cell.certificate_calls for cell in result.table),
        "acceleration_restarts": sum(cell.acceleration_restarts for cell in result.table),
        "grid_lanes": result.grid_lanes,
        "best_on_grid_edge": on_edge,
    }
    return EXIT_OK


def _simulate(args, report: AnalysisReport) -> int:
    try:
        if args.graph == "star":
            graph = GraphSpec(
                kind="star",
                star_d=args.star_d,
                star_diag=tuple(_float_list(args.star_diag)),
                star_offdiag=tuple(_float_list(args.star_offdiag)),
                hub_seed=args.hub_seed,
            )
        else:
            graph = GraphSpec(kind="chain", chain_rho=tuple(_float_list(args.chain_rho)))
        exp_config = ExperimentConfig(
            graph=graph,
            dims=tuple(_int_list(args.p)),
            sample_sizes=tuple(_int_list(args.n)),
            replications=args.B,
            base_seed=args.seed,
            penalty_rule=args.penalty_rule,
            fixed_constants=(args.c1, args.c2),
            ci_level=args.ci_level,
            edges_of_interest=(
                tuple(_edge_list(args.edges)) if args.experiment == "normality" else ()
            ),
            retune_per_replication=args.retune_per_replication,
            threads=args.threads,
        )
        for p in exp_config.dims:
            graph.build(p)
    except (DataFormatError, NotPositiveDefiniteError) as exc:
        # GraphSpec's and the graphs' errors for library callers; here the
        # flags alone decide them, before any replication runs.
        raise ConfigError(str(exc)) from None
    result = RUNNERS[args.experiment](exp_config)
    out = f"{args.out_dir}/{args.experiment}"
    _emit(report, write_csv_atomic, [(result.csv_rows(), f"{out}.csv")])
    _emit(report, write_json_atomic, [(result.to_jsonable(), f"{out}.json")])
    report.payload = {
        "experiment": args.experiment,
        "cells": len(result.failure_counts),
        "lanes": result.lanes,
        "failed_seeds": result.failed_seeds,
    }
    return EXIT_OK


def _diagnose(args, report: AnalysisReport) -> int:
    """Read the matrices, then check the flags with the library's own check
    before any factorization: a bad flag is a config error even where a
    matrix is not positive definite."""
    mats = [read_matrix_csv(p) for p in _existing_paths(args.precision, "precision")]
    sizes = None
    if args.sample_sizes is not None:
        sizes = _int_list(args.sample_sizes)
        if len(sizes) != len(mats):
            raise ConfigError(f"{len(sizes)} sample sizes for {len(mats)} populations")
        if min(sizes) < 1:
            raise ConfigError(f"--sample-sizes must be positive, got {min(sizes)}")
    penalty = _penalty_flags((args.lam, args.rho), "--lam/--rho")
    try:
        check_settings(penalty, args.psi, sizes, args.gamma)
    except DataFormatError as exc:
        raise ConfigError(str(exc)) from None
    try:
        precisions = PrecisionSet([(m + m.T) / 2 for m in mats], positive_definite=True)
    except NotPositiveDefiniteError as exc:
        raise DataFormatError(str(exc))
    diag = diagnostics_report(
        precisions,
        penalty,
        psi=args.psi,
        sample_sizes=sizes,
        gamma=args.gamma,
        k1=args.k1,
        eigen_bound_l=args.eigen_bound,
    ).to_jsonable()
    _emit(report, write_json_atomic, [(diag, f"{args.out_dir}/diagnostics.json")])
    report.payload = {"assumptions_hold": diag["assumptions_hold"]}
    return EXIT_OK


COMMANDS = {
    "estimate": _estimate,
    "test": _test,
    "tune": _tune,
    "simulate": _simulate,
    "diagnose": _diagnose,
}


def environment() -> dict:
    """Versions, and numpy's OpenBLAS with the thread count solves run at."""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpus": usable_cpus(),
        "openblas": _blas.describe(),
    }


def run_command(args: argparse.Namespace) -> tuple[AnalysisReport, int]:
    """Run one resolved command; returns the report and an exit code.

    The report's ``config.params`` holds every resolved argument; saved as a
    JSON file and passed to ``--config``, it reruns the command.
    """
    t_start = time.perf_counter()
    params = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    report = AnalysisReport(
        tool_version=__version__,
        schema=REPORT_SCHEMA,
        command=args.command,
        config={"command": args.command, "params": params},
    )
    code = COMMANDS[args.command](args, report)
    report.environment = environment()
    report.timings["wall_seconds"] = time.perf_counter() - t_start
    path = f"{args.out_dir}/report.json"
    write_json_atomic(report.to_jsonable(), path)
    report.outputs.append(path)
    return report, code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = resolve_config(argv)
        report, code = run_command(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, NotPositiveDefiniteError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except MultiGGMError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not args.quiet:
        for path in report.outputs:
            print(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
