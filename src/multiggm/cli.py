"""Command-line interface.

Subcommands: ``estimate`` (solve, optionally debias), ``test``
(linear-combination z-tests), ``tune`` (e-BIC grid), ``simulate`` (Monte
Carlo experiments), ``diagnose`` (theory diagnostics on true precision
matrices).  Every run writes a JSON report (plus CSV tables) into
``--out-dir``; the report echoes the resolved arguments, so any run can be
reproduced from it.  ``--config`` takes a JSON object keyed by the
subcommand's argument names (``out_dir``, ``c1``, ``ci_level``, ...); flags
override its values and unknown keys are an error.  A flag's default and
range rule are the library's: a command checks the flag by that rule, under
the flag's name, before the solve or the first factorization.

Exit codes: 0 success, 1 configuration error, 2 data error,
3 solver non-convergence (``estimate`` and ``test`` still write their
outputs and warn on stderr).  Edge indices on the command line and in all
output files are 1-based.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy

from . import __version__, _blas, inference
from ._lanes import usable_cpus
from .core import PrecisionSet, _check_sample_sizes, sample_covariance
from .diagnostics import check_settings, diagnostics_report
from .errors import (
    ConfigError,
    ConvergenceError,
    DataFormatError,
    MultiGGMError,
    NotPositiveDefiniteError,
)
from .experiments import RUNNERS, ExperimentConfig
from .graphs import GraphSpec, two_population_chain_spec, two_population_star_spec
from .inference import confidence_interval, debias, test_linear_combo
from .io import (
    ColumnTable,
    ingest_csv,
    read_lanes,
    read_matrix_csv,
    write_csv_atomic,
    write_files,
    write_json_atomic,
    write_matrix_csv,
)
from .selection import (
    DEFAULT_GRID_VALUES,
    TuningGrid,
    rate_penalty,
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


def _default(function, name: str):
    """The default of ``function``'s parameter ``name``."""
    return inspect.signature(function).parameters[name].default


def build_parser() -> _Parser:
    """The parser; ``parser.commands`` maps names to subparsers.

    Defaults the library holds are read from it.  No option is argparse-required,
    so that a config file can supply any of them; commands check what they need.
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
    p_test.add_argument("--alpha", type=float,
                        default=_default(inference.test_linear_combo, "alpha_level"))
    p_test.add_argument("--ci-level", type=float,
                        default=_default(inference.confidence_interval, "level"))

    default_grid = ",".join(str(v) for v in DEFAULT_GRID_VALUES)
    p_tune = sub.add_parser("tune", help="e-BIC grid search over penalty constants")
    common(p_tune); data_opts(p_tune)
    p_tune.add_argument("--c1-grid", default=default_grid, help="comma-separated C1 values")
    p_tune.add_argument("--c2-grid", default=default_grid, help="comma-separated C2 values")
    p_tune.add_argument("--gamma", type=float, default=TuningGrid.gamma)

    chain, star = two_population_chain_spec(), two_population_star_spec()
    p_sim = sub.add_parser("simulate", help="Monte Carlo experiments")
    common(p_sim)
    p_sim.add_argument("experiment", choices=sorted(RUNNERS))
    p_sim.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p_sim.add_argument("--threads", type=int, default=ExperimentConfig.threads,
                       help="most lanes (processes) replications run in")
    p_sim.add_argument("--graph", choices=["chain", "star"], default="chain")
    p_sim.add_argument("--p", default="50", help="comma-separated dimensions")
    p_sim.add_argument("--n", default="600", help="comma-separated sample sizes")
    p_sim.add_argument("--B", type=int, default=100, help="replications")
    p_sim.add_argument("--chain-rho", default=",".join(map(str, chain.chain_rho)))
    p_sim.add_argument("--star-d", type=int, default=star.star_d)
    p_sim.add_argument("--star-diag", default=",".join(map(str, star.star_diag)))
    p_sim.add_argument("--star-offdiag", default=",".join(map(str, star.star_offdiag)))
    p_sim.add_argument("--hub-seed", type=int, default=star.hub_seed)
    p_sim.add_argument("--penalty-rule", choices=["ebic_grid", "fixed"],
                       default=ExperimentConfig.penalty_rule)
    for flag, constant in zip(("--c1", "--c2"), ExperimentConfig.fixed_constants):
        p_sim.add_argument(flag, type=float, default=constant)
    p_sim.add_argument("--edges", default="1,2;2,3", help="edges for the normality experiment")
    p_sim.add_argument("--ci-level", type=float, default=ExperimentConfig.ci_level)
    p_sim.add_argument("--retune-per-replication", action="store_true")

    p_diag = sub.add_parser("diagnose", help="theory diagnostics on true precision matrices")
    common(p_diag)
    p_diag.add_argument("--precision", help="comma-separated matrix CSV paths, one per population (required)")
    p_diag.add_argument("--lam", type=float, default=0.1)
    p_diag.add_argument("--rho", type=float, default=0.1)
    for name in ("psi", "gamma", "k1"):
        p_diag.add_argument(f"--{name}", type=float, default=_default(diagnostics_report, name))
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
        with open(path, encoding="utf-8-sig") as fh:
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
    except ConfigError as exc:
        raise ConfigError(f"{flags}: {exc}") from None


def _resolve_penalty(args, p: int, sample_sizes) -> PenaltyPair:
    absolute, scaled = (args.lam, args.rho), (args.c1, args.c2)
    given = [pair for pair in (absolute, scaled) if pair != (None, None)]
    if len(given) != 1 or None in given[0]:
        raise ConfigError("give one complete penalty pair: --lam with --rho, or --c1 with --c2")
    if given[0] is absolute:
        return _penalty_flags(absolute, "--lam/--rho")
    constants = _penalty_flags(scaled, "--c1/--c2")
    return rate_penalty(constants.lam, constants.rho, p, sample_sizes)


@contextmanager
def _phase(report: AnalysisReport, name: str):
    """Add the wall time of the ``with`` body to ``report.timings[name]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        report.timings[name] = report.timings.get(name, 0.0) + time.perf_counter() - start


def _emit(report: AnalysisReport, writer, jobs) -> None:
    """``writer(obj, path)`` for each ``(obj, path)`` job, through
    :func:`multiggm.io.write_files`, which picks the lanes; the paths join
    ``report.outputs`` in job order."""
    with _phase(report, "write_s"):
        lanes = write_files(writer, jobs)
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
    penalty = _resolve_penalty(args, covs.p, covs.sample_sizes)
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
    jobs = [
        (m, f"{args.out_dir}/{name}_k{k + 1}.csv")
        for name, stack in matrices
        for k, m in enumerate(stack.matrices)
    ]
    # Written population by population: then, at two lanes, the cut between
    # runs of equal cells falls between populations, and each lane formats
    # one mostly-zero estimate and one dense debiased matrix.  Listed name by
    # name.
    _emit(report, write_matrix_csv, [job for k in range(covs.K) for job in jobs[k :: covs.K]])
    report.outputs = [path for _, path in jobs]
    report.payload = {
        "penalty": {"lam": penalty.lam, "rho": penalty.rho},
        "converged": solve.converged,
        **_solve_counts(solve),
        "kkt_violation": solve.kkt_violation,
        "objective": solve.objective,
        "sample_sizes": list(covs.sample_sizes),
    }
    return code


def _test(args, report: AnalysisReport) -> int:
    edges = _edge_list(_given(args.edges, "--edges"))
    coeffs = _float_list(_given(args.coeffs, "--coeffs"))
    covs = _covariances(args, report)
    inference._check_coefficients(coeffs, covs.K)
    inference._check_level(args.alpha, "--alpha", args.alpha)
    inference._check_level(args.ci_level, "--ci-level", 1.0 - args.ci_level)
    rows, cols = numpy.array(edges).T
    inference._check_pairs(rows, cols, covs.p)
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
        table = ColumnTable(header, columns)
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
    grid = TuningGrid(
        c1_values=tuple(_float_list(args.c1_grid)),
        c2_values=tuple(_float_list(args.c2_grid)),
        gamma=args.gamma,
    )
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
    """Read the matrices, then check the flags with the library's own rules
    before any factorization: ``--sample-sizes`` by the sample-size rule,
    under the flag's name, and the rest by ``check_settings``.  A bad flag
    is then a config error even where a matrix is not positive definite."""
    mats = [read_matrix_csv(p) for p in _existing_paths(args.precision, "precision")]
    sizes = None if args.sample_sizes is None else _check_sample_sizes(
        _int_list(args.sample_sizes), "--sample-sizes", len(mats))
    penalty = _penalty_flags((args.lam, args.rho), "--lam/--rho")
    check_settings(penalty, args.psi, sizes, args.gamma, args.k1, args.eigen_bound)
    precisions = PrecisionSet([(m + m.T) / 2 for m in mats], positive_definite=True)
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


def _check_out_dir(out_dir: str) -> None:
    """Raise :class:`ConfigError` unless ``out_dir`` is a directory or can
    be made one: it is not empty, and the nearest of it and its ancestors
    that exists is a directory.  Creates nothing."""
    if not out_dir:
        raise ConfigError("--out-dir must not be empty")
    path = os.path.abspath(out_dir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ConfigError(f"--out-dir {out_dir}: {path} is not a directory")


def run_command(args: argparse.Namespace) -> tuple[AnalysisReport, int]:
    """Run one resolved command; returns the report and an exit code.

    ``--out-dir`` is checked before the command reads any input.  The
    report's ``config.params`` holds every resolved argument; saved as a
    JSON file and passed to ``--config``, it reruns the command.
    """
    t_start = time.perf_counter()
    _check_out_dir(args.out_dir)
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
